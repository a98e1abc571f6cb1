#include "serving/queue.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace bfpsim {

namespace {

/// Queue order: highest tier first (tier 0 before tier 1), then earliest
/// deadline, then lowest id.
bool queue_before(const QueueEntry& a, const QueueEntry& b) {
  return std::tuple(a.tier, a.deadline_cycle, a.id) <
         std::tuple(b.tier, b.deadline_cycle, b.id);
}

}  // namespace

AdmissionQueue::AdmissionQueue(std::size_t capacity, DropPolicy policy,
                               std::vector<std::size_t> quota_slots)
    : capacity_(capacity),
      policy_(policy),
      quota_(std::move(quota_slots)),
      held_(std::max<std::size_t>(quota_.size(), 1), 0) {
  BFP_REQUIRE(capacity_ >= 1, "AdmissionQueue: capacity must be >= 1");
  for (const std::size_t s : quota_) {
    BFP_REQUIRE(s >= 1, "AdmissionQueue: every quota must be >= 1");
  }
}

std::size_t AdmissionQueue::held(int tenant) const {
  const auto t = static_cast<std::size_t>(tenant);
  return (tenant >= 0 && t < held_.size()) ? held_[t] : 0;
}

void AdmissionQueue::insert_sorted(const QueueEntry& e) {
  const auto it = std::lower_bound(q_.begin(), q_.end(), e, queue_before);
  q_.insert(it, e);
  const auto t = static_cast<std::size_t>(e.tenant);
  if (t < held_.size()) ++held_[t];
  peak_depth_ = std::max(peak_depth_, q_.size());
}

void AdmissionQueue::release(const QueueEntry& e) {
  const auto t = static_cast<std::size_t>(e.tenant);
  if (t < held_.size()) {
    BFPSIM_INVARIANT(held_[t] > 0,
                     "AdmissionQueue: quota accounting underflow");
    --held_[t];
  }
}

PushOutcome AdmissionQueue::push(const QueueEntry& e) {
  PushOutcome out;
  const auto t = static_cast<std::size_t>(e.tenant);
  const bool has_quota = !quota_.empty() && t < quota_.size();
  if (q_.size() < capacity_) {
    // Room, but a tenant at its budget is still turned away — the spare
    // room belongs to the other tenants.
    if (has_quota && held_[t] >= quota_[t]) {
      ++quota_rejected_;
      out.quota_rejected = true;
      return out;
    }
    insert_sorted(e);
    out.admitted = true;
    return out;
  }
  // Full: decide the would-be victim first. The queue tail is the
  // lowest-priority entry overall (worst tier, latest deadline, highest
  // id); shed it iff its tier is strictly worse than the newcomer's,
  // otherwise fall back to the drop policy.
  std::size_t victim_at;
  if (q_.back().tier > e.tier) {
    victim_at = q_.size() - 1;
  } else if (policy_ == DropPolicy::kShedOldest) {
    victim_at = 0;
  } else {
    ++rejected_;
    return out;
  }
  // Quota is charged net of the victim: shedding the tenant's own entry
  // frees one of its slots, so a lone tenant owning the whole capacity
  // sheds exactly like a queue without quotas.
  const std::size_t freed = q_[victim_at].tenant == e.tenant ? 1 : 0;
  if (has_quota && held_[t] - freed >= quota_[t]) {
    ++quota_rejected_;
    out.quota_rejected = true;
    return out;
  }
  out.victim = q_[victim_at];
  out.had_victim = true;
  release(out.victim);
  q_.erase(q_.begin() + static_cast<long>(victim_at));
  ++shed_;
  insert_sorted(e);
  out.admitted = true;
  return out;
}

QueueEntry AdmissionQueue::pop() {
  BFP_REQUIRE(!q_.empty(), "AdmissionQueue: pop on empty queue");
  QueueEntry e = q_.front();
  q_.erase(q_.begin());
  release(e);
  return e;
}

void AdmissionQueue::requeue(const QueueEntry& e) { insert_sorted(e); }

}  // namespace bfpsim
