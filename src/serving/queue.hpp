// Bounded admission queue with backpressure, priority tiers and per-tenant
// quotas for the serving event loop.
//
// Entries are ordered by (tier, deadline, id): tier 0 first, then earliest
// deadline, with the request id as the tie-break, so the continuous
// batcher always sees the most urgent request of the highest-priority tier
// at the head. Depth is bounded: when a request arrives at a full queue
// the drop policy decides who pays —
//
//  * kRejectNewest — the arriving request is rejected (classic tail-drop:
//    admitted work is never abandoned), or
//  * kShedOldest   — the head entry (under a uniform SLO the longest
//    waiting, and the most-likely-already-doomed one) is shed to admit the
//    newcomer (head-drop, as load-shedding proxies do).
//
// Two multi-tenant policies ride on top:
//
//  * priority tiers — when the queue is full a newcomer sheds the queue
//    tail (worst tier, latest deadline, highest id) if and only if that
//    entry's tier is strictly worse than the newcomer's; equal-tier
//    traffic falls back to the drop policy;
//  * per-tenant quotas — each tenant owns a fixed number of queue slots
//    (TenantSet::quota_slots); a request arriving with its tenant at quota
//    is rejected even if the queue has room, so one noisy tenant cannot
//    crowd out the rest.
//
// With one tenant (no quotas) and one tier, only the bounded deadline
// queue and its drop policy remain.
//
// Purely serial, purely deterministic: every operation is a function of
// the call sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bfpsim {

enum class DropPolicy {
  kRejectNewest,
  kShedOldest,
};

/// One admitted request waiting to be batched.
struct QueueEntry {
  int id = 0;
  std::uint64_t arrival_cycle = 0;
  std::uint64_t deadline_cycle = 0;  ///< arrival + SLO budget
  int tenant = 0;  ///< tenant tag (0 = the anonymous tenant)
  int tier = 0;    ///< priority tier, 0 = highest
};

/// What happened to a push.
struct PushOutcome {
  bool admitted = false;
  bool quota_rejected = false;  ///< tenant at quota (queue may have room)
  bool had_victim = false;      ///< an entry was shed to admit
  QueueEntry victim;            ///< valid iff had_victim
};

class AdmissionQueue {
 public:
  /// `quota_slots[t]` = queue slots tenant t may hold; empty = no quotas.
  AdmissionQueue(std::size_t capacity, DropPolicy policy,
                 std::vector<std::size_t> quota_slots = {});

  /// Offer a request. With room, the tenant's quota alone decides; when
  /// full, the would-be victim is chosen first (see the header comment
  /// for the shed order) and the newcomer's quota is charged net of any
  /// same-tenant victim, so a lone tenant owning the whole capacity sheds
  /// exactly like a queue without quotas.
  [[nodiscard]] PushOutcome push(const QueueEntry& e);

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Highest-priority, earliest-deadline entry (requires !empty()).
  const QueueEntry& front() const { return q_.front(); }

  /// Remove and return the front entry (requires !empty()).
  QueueEntry pop();

  /// Put an already-admitted entry back (executor-failure retry). Keeps
  /// the queue order and bypasses both the capacity bound and the tenant
  /// quota: the request was admitted once and backpressure must not turn
  /// an executor fault into a drop.
  void requeue(const QueueEntry& e);

  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t quota_rejected() const { return quota_rejected_; }
  std::uint64_t shed() const { return shed_; }
  std::size_t peak_depth() const { return peak_depth_; }

  /// Entries tenant t holds right now (0 for unknown tenants).
  std::size_t held(int tenant) const;

 private:
  void insert_sorted(const QueueEntry& e);
  void release(const QueueEntry& e);  ///< quota bookkeeping on removal

  std::size_t capacity_;
  DropPolicy policy_;
  std::vector<std::size_t> quota_;    ///< per-tenant slot budget
  std::vector<std::size_t> held_;     ///< per-tenant entries in queue
  std::vector<QueueEntry> q_;         ///< sorted by (tier, deadline, id)
  std::uint64_t rejected_ = 0;        ///< full-queue rejections
  std::uint64_t quota_rejected_ = 0;  ///< tenant-quota rejections
  std::uint64_t shed_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace bfpsim
