#include "serving/event_loop.hpp"

#include <algorithm>
#include <array>
#include <queue>
#include <span>
#include <string>

#include "common/arena.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"

namespace bfpsim {

void ServePolicy::validate() const {
  BFP_REQUIRE(queue_capacity >= 1, "ServePolicy: queue capacity must be >= 1");
  BFP_REQUIRE(max_batch >= 1, "ServePolicy: max batch must be >= 1");
  BFP_REQUIRE(slo_ms > 0.0, "ServePolicy: SLO must be positive");
  BFP_REQUIRE(max_retries >= 0, "ServePolicy: max_retries must be >= 0");
}

void BackendSpec::validate() const {
  BFP_REQUIRE(executors >= 1, "BackendSpec: need at least one executor");
  BFP_REQUIRE(freq_hz > 0.0, "BackendSpec: frequency must be positive");
  BFP_REQUIRE(!passes.empty(), "BackendSpec: per-request passes required");
  for (const ExecutorFailure& f : failures) {
    BFP_REQUIRE(f.executor >= 0 && f.executor < executors,
                "BackendSpec: failure targets an unknown executor");
  }
}

std::uint64_t class_service_estimate(PassTable passes, int id) {
  BFP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < passes.size(),
              "class_service_estimate: request id out of range");
  const PassSpec& p = passes[static_cast<std::size_t>(id)];
  return p.load_cycles + p.compute_cycles + p.store_cycles;
}

int pick_replica(const ReplicaTable& table,
                 std::span<const PassTable> class_passes, std::uint64_t now,
                 int head_id) {
  int best = -1;
  std::uint64_t best_est = 0;
  for (const int id : table.active) {
    const ReplicaInstance& r = table.replicas[static_cast<std::size_t>(id)];
    if (r.dead || r.ready_cycle > now || r.busy_until > now) continue;
    const std::uint64_t est = class_service_estimate(
        class_passes[static_cast<std::size_t>(r.cls)], head_id);
    // Strict < keeps the lowest instance id on ties (`active` is
    // ascending): the lowest-free-unit scan when all classes cost the
    // same.
    if (best < 0 || est < best_est) {
      best = r.instance;
      best_est = est;
    }
  }
  return best;
}

int ReplicaTable::add(int cls, std::uint64_t now, std::uint64_t ready_at) {
  ReplicaInstance r;
  r.instance = static_cast<int>(replicas.size());
  r.cls = cls;
  r.provisioned_cycle = now;
  r.ready_cycle = ready_at;
  replicas.push_back(r);
  active.push_back(r.instance);  // ids are monotone: stays ascending
  peak = std::max(peak, static_cast<int>(active.size()));
  return r.instance;
}

int ReplicaTable::spawn(int cls, std::uint64_t now, std::uint64_t ready_at) {
  const int inst = add(cls, now, ready_at);
  scale_events.push_back({now, true, inst, cls});
  return inst;
}

void ReplicaTable::retire(int instance, std::uint64_t now) {
  const auto it = std::lower_bound(active.begin(), active.end(), instance);
  BFPSIM_REQUIRE(it != active.end() && *it == instance,
                 "ReplicaTable::retire: instance is not live");
  active.erase(it);
  ReplicaInstance& r = replicas[static_cast<std::size_t>(instance)];
  r.retired = true;
  r.retired_cycle = now;
  scale_events.push_back({now, false, instance, r.cls});
}

namespace {

/// Discrete event, ordered by (cycle, seq): seq is the push order, so ties
/// resolve by who was scheduled first — explicit and platform-independent.
struct Event {
  std::uint64_t cycle = 0;
  std::uint64_t seq = 0;
  enum class Kind {
    kArrival,
    kReplicaFree,
    kTimer,
    kComplete,
    kExecutorFail,
    kScalerTick,
    kReplicaReady,
  } kind = Kind::kArrival;
  int payload = 0;  ///< request id (arrival/complete) or replica instance
  /// kComplete: the request's dispatch generation when the event was
  /// scheduled. A failure-triggered re-dispatch bumps the generation, so
  /// completions of aborted batches are recognized as stale and ignored.
  std::uint64_t aux = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.cycle != b.cycle) return a.cycle > b.cycle;
    return a.seq > b.seq;
  }
};

std::uint64_t ms_to_cycles(double ms, double freq) {
  return static_cast<std::uint64_t>(ms * 1e-3 * freq);
}

/// The loop's per-event counters, tallied in plain integers and added to
/// the report's Counters once, after the loop.
enum Tally : std::size_t {
  kRequests, kAdmitted, kCompleted, kBatches, kDispatched, kTimers, kShed,
  kRejected, kRetried, kFailed, kExecutorFailures, kQuotaRejected,
  kScaleUps, kScaleDowns, kNumTallies
};

constexpr std::array<const char*, kNumTallies> kTallyNames = {
    "serve.requests",       "serve.admitted",  "serve.completed",
    "serve.batches",        "serve.dispatched", "serve.timers",
    "serve.shed",           "serve.rejected",  "serve.retried",
    "serve.failed",         "serve.executor_failures",
    "fleet.quota_rejected", "fleet.scale_ups", "fleet.scale_downs"};

}  // namespace

ServeLoopRun serve_loop(const ServeLoopSpec& spec, const ArrivalTrace& trace,
                        const ServePolicy& policy, Trace* event_trace) {
  trace.validate();
  policy.validate();
  const int n = trace.total_requests;
  const auto un = static_cast<std::size_t>(n);

  ServeLoopRun run;
  ServeReport& rep = run.report;
  ReplicaTable& table = run.table;
  const double freq = spec.freq_hz;
  rep.freq_hz = freq;
  rep.offered_rps = trace.offered_rps;
  rep.slo_cycles = ms_to_cycles(policy.slo_ms, freq);

  // The replica table starts with every class's initial replicas, in
  // class order. The pass tables are referenced, never copied.
  std::vector<PassTable> class_passes;
  class_passes.reserve(spec.classes.size());
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    const ServeClass& cls = spec.classes[c];
    BFP_REQUIRE(cls.passes.size() >= un,
                "serve_loop: one pass spec per request id required");
    class_passes.push_back(cls.passes);
    for (int i = 0; i < cls.initial_replicas; ++i) {
      table.add(static_cast<int>(c), 0, 0);
    }
  }
  rep.unit_busy_cycles.assign(table.replicas.size(), 0);
  std::vector<std::vector<QueueEntry>> inflight(table.replicas.size());

  // Per-tenant deadline budget (a tenant's slo_ms override, or the policy
  // SLO) and priority tier.
  const int num_tenants = static_cast<int>(spec.tenants.size());
  std::vector<std::uint64_t> tenant_slo;
  tenant_slo.reserve(spec.tenants.size());
  for (const ServeTenant& t : spec.tenants) {
    tenant_slo.push_back(t.slo_ms > 0.0 ? ms_to_cycles(t.slo_ms, freq)
                                        : rep.slo_cycles);
  }

  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  std::uint64_t seq = 0;
  auto push_event = [&](std::uint64_t cycle, Event::Kind kind, int payload,
                        std::uint64_t aux = 0) {
    events.push(Event{cycle, seq++, kind, payload, aux});
  };
  // Tenant tags ride on the trace. Closed-loop reinjected ids (beyond the
  // initial arrivals) belong to the anonymous tenant 0.
  std::vector<int> tenant_by_id(un, 0);
  for (const RequestArrival& a : trace.arrivals) {
    if (a.tenant > 0) {
      BFP_REQUIRE(a.tenant < num_tenants,
                  "serve_loop: arrival tagged with unknown tenant");
      tenant_by_id[static_cast<std::size_t>(a.id)] = a.tenant;
    }
  }
  // Hard executor failures are known to the simulation up front (the fault
  // plan is virtual-time); pushing them here gives them low sequence
  // numbers, so at an equal cycle a failure is handled before any
  // completion scheduled later — a batch finishing exactly at the death
  // cycle still completes (complete_cycle <= now at abort time).
  for (const ExecutorFailure& f : spec.failures) {
    push_event(f.cycle, Event::Kind::kExecutorFail, f.executor);
  }
  if (spec.scaler != nullptr) {
    push_event(spec.scaler->interval_cycles(), Event::Kind::kScalerTick, 0);
  }
  // Closed loop: arrivals beyond the initial client burst are injected at
  // completion + think time, taking the next unissued id.
  int next_closed_id = static_cast<int>(trace.arrivals.size());
  auto release_client = [&](std::uint64_t now) {
    if (trace.closed_loop && next_closed_id < n) {
      push_event(now + trace.think_cycles, Event::Kind::kArrival,
                 next_closed_id++);
    }
  };

  AdmissionQueue queue(policy.queue_capacity, policy.drop_policy,
                       spec.quota_slots);
  std::vector<LatencyRecord> records(un);
  std::vector<bool> completed(un, false);
  std::vector<std::uint64_t> dispatch_gen(un, 0);
  std::vector<int> retries(un, 0);
  int resolved = 0;  ///< completed, rejected, shed or abandoned ids

  std::array<std::uint64_t, kNumTallies> tally{};
  // Event text is built only under `tracing`: a disabled or absent trace
  // records nothing, so skipping the strings changes no output.
  const bool tracing = event_trace != nullptr && event_trace->enabled();
  auto trace_queue = [&](std::uint64_t cycle, std::string message) {
    event_trace->record_pid(cycle, "queue", std::move(message), -1);
  };
  auto trace_replica = [&](std::uint64_t cycle, int instance,
                           std::string message) {
    event_trace->record_pid(cycle,
                            spec.replica_prefix + std::to_string(instance),
                            std::move(message), instance);
  };
  auto sample_depth = [&](std::uint64_t cycle) {
    rep.queue_depth.push_back({cycle, queue.size()});
  };

  // Per-dispatch scratch. The loop is serial, so one arena serves every
  // batch; each dispatch brackets its allocations with an ArenaScope and
  // the chunks are reused batch after batch — zero heap traffic after the
  // first dispatch.
  Arena dispatch_arena;

  // The continuous batcher. For the replica that serves the head request
  // cheapest: dispatch a full batch at once; dispatch a partial batch when
  // the head has already waited max_wait_cycles, or when its SLO slack is
  // gone (waiting longer would bust the deadline even if served
  // immediately later). Otherwise schedule a timer at the earliest cycle
  // one of those becomes true.
  auto try_dispatch = [&](std::uint64_t now) {
    while (!queue.empty()) {
      const QueueEntry& head = queue.front();
      const int inst = pick_replica(table, class_passes, now, head.id);
      if (inst < 0) return;  // all busy/cold/dead; a later event revisits
      const auto ui = static_cast<std::size_t>(inst);
      ReplicaInstance& unit = table.replicas[ui];
      const PassTable passes_of = class_passes[static_cast<std::size_t>(
          unit.cls)];

      const std::uint64_t est = class_service_estimate(passes_of, head.id);
      const bool full = queue.size() >= static_cast<std::size_t>(
                                            policy.max_batch);
      const bool waited_out =
          now - head.arrival_cycle >= policy.max_wait_cycles;
      const bool slo_pressure = now + est >= head.deadline_cycle;
      if (!full && !waited_out && !slo_pressure) {
        const std::uint64_t wait_at =
            head.arrival_cycle + policy.max_wait_cycles;
        const std::uint64_t slo_at = head.deadline_cycle - est;
        // The revisit is > now because neither bound has been hit yet.
        push_event(std::min(wait_at, slo_at), Event::Kind::kTimer, 0);
        ++tally[kTimers];
        return;
      }

      // Form the batch straight off the queue. Batch scratch lives in the
      // dispatch arena for exactly this iteration.
      ArenaScope batch_scope(&dispatch_arena);
      std::vector<QueueEntry, ArenaAllocator<QueueEntry>> batch{
          ArenaAllocator<QueueEntry>(&dispatch_arena)};
      batch.reserve(static_cast<std::size_t>(policy.max_batch));
      while (!queue.empty() &&
             batch.size() < static_cast<std::size_t>(policy.max_batch)) {
        batch.push_back(queue.pop());
      }
      sample_depth(now);

      std::vector<PassSpec, ArenaAllocator<PassSpec>> passes{
          ArenaAllocator<PassSpec>(&dispatch_arena)};
      passes.reserve(batch.size());
      for (const QueueEntry& e : batch) {
        passes.push_back(passes_of[static_cast<std::size_t>(e.id)]);
      }
      std::vector<PassTimeline, ArenaAllocator<PassTimeline>> timeline(
          batch.size(), ArenaAllocator<PassTimeline>(&dispatch_arena));
      const PipelineTotals pipe =
          simulate_pipeline(passes, /*double_buffered=*/true, timeline);

      for (std::size_t j = 0; j < batch.size(); ++j) {
        const QueueEntry& e = batch[j];
        const auto ie = static_cast<std::size_t>(e.id);
        LatencyRecord& r = records[ie];
        r.id = e.id;
        r.arrival_cycle = e.arrival_cycle;
        r.dispatch_cycle = now;
        r.complete_cycle = now + timeline[j].store_end;
        r.unit = inst;
        r.batch_size = static_cast<int>(batch.size());
        r.slo_met = r.complete_cycle <= e.deadline_cycle;
        r.tenant = e.tenant;
        completed[ie] = true;
        push_event(r.complete_cycle, Event::Kind::kComplete, e.id,
                   ++dispatch_gen[ie]);
      }
      inflight[ui].assign(batch.begin(), batch.end());
      unit.busy_until = now + pipe.total_cycles;
      rep.unit_busy_cycles[ui] += pipe.total_cycles;
      push_event(unit.busy_until, Event::Kind::kReplicaFree, inst);

      ++tally[kBatches];
      tally[kDispatched] += batch.size();
      if (tracing) {
        trace_replica(now, inst,
                      "dispatch batch=" + std::to_string(batch.size()) +
                          " head=req" + std::to_string(batch.front().id));
      }
    }
  };

  // The initial arrivals stream straight from the trace instead of
  // sitting in the heap: they are sorted by (cycle, id) and, as if issued
  // before every scheduled event, win cycle ties against the heap.
  //
  // The determinism contract hinges on virtual time never running
  // backwards: the (cycle, seq) heap order plus "every event is pushed at
  // or after its cause" guarantee it, and the contract makes the guarantee
  // checked instead of assumed.
  std::size_t next_arrival = 0;
  [[maybe_unused]] std::uint64_t last_now = 0;
  while (next_arrival < trace.arrivals.size() || !events.empty()) {
    Event ev;
    if (next_arrival < trace.arrivals.size() &&
        (events.empty() ||
         trace.arrivals[next_arrival].cycle <= events.top().cycle)) {
      const RequestArrival& a = trace.arrivals[next_arrival++];
      ev = Event{a.cycle, 0, Event::Kind::kArrival, a.id};
    } else {
      ev = events.top();
      events.pop();
    }
    const std::uint64_t now = ev.cycle;
    BFPSIM_INVARIANT(now >= last_now,
                     "serve_loop: virtual time must be monotone");
    last_now = now;
    switch (ev.kind) {
      case Event::Kind::kArrival: {
        const int id = ev.payload;
        const int tenant = tenant_by_id[static_cast<std::size_t>(id)];
        const auto ut = static_cast<std::size_t>(tenant);
        ++tally[kRequests];
        if (tracing) trace_queue(now, "arrive req" + std::to_string(id));
        const PushOutcome got = queue.push(
            {id, now, now + tenant_slo[ut], tenant, spec.tenants[ut].tier});
        if (got.had_victim) {
          rep.rejected_ids.push_back(got.victim.id);
          ++resolved;
          ++tally[kShed];
          if (tracing) {
            trace_queue(now, "shed req" + std::to_string(got.victim.id));
          }
          // Closed loop: a shed request still releases its client.
          release_client(now);
        }
        if (got.admitted) {
          ++tally[kAdmitted];
        } else {
          rep.rejected_ids.push_back(id);
          ++resolved;
          if (got.quota_rejected) {
            ++tally[kQuotaRejected];
            if (tracing) {
              trace_queue(now, "quota-reject req" + std::to_string(id) +
                                   " tenant" + std::to_string(tenant));
            }
          } else {
            ++tally[kRejected];
            if (tracing) trace_queue(now, "reject req" + std::to_string(id));
          }
          release_client(now);
        }
        sample_depth(now);
        try_dispatch(now);
        break;
      }
      case Event::Kind::kComplete: {
        const int id = ev.payload;
        const auto uid = static_cast<std::size_t>(id);
        // A failure abort (completed -> false) or a re-dispatch (bumped
        // generation) makes this event stale.
        if (!completed[uid] || ev.aux != dispatch_gen[uid]) break;
        const LatencyRecord& r = records[uid];
        ++resolved;
        ++tally[kCompleted];
        if (spec.scaler != nullptr) {
          spec.scaler->on_completion(r.total_cycles());
        }
        if (tracing) {
          trace_replica(now, r.unit, "complete req" + std::to_string(id));
        }
        release_client(now);
        break;
      }
      case Event::Kind::kExecutorFail: {
        const int u = ev.payload;
        const auto uu = static_cast<std::size_t>(u);
        ReplicaInstance& unit = table.replicas[uu];
        if (unit.dead) break;
        unit.dead = true;
        ++tally[kExecutorFailures];
        if (tracing) trace_replica(now, u, "executor failed");
        if (unit.busy_until > now) {
          // The aborted batch's remaining service never happened.
          rep.unit_busy_cycles[uu] -= unit.busy_until - now;
          unit.busy_until = now;
        }
        for (const QueueEntry& e : inflight[uu]) {
          const auto ie = static_cast<std::size_t>(e.id);
          // Finished at or before the death cycle: counts as completed
          // (its kComplete event is processed normally).
          if (records[ie].complete_cycle <= now) continue;
          completed[ie] = false;
          if (retries[ie] < policy.max_retries) {
            ++retries[ie];
            queue.requeue(e);  // original arrival & deadline preserved
            ++tally[kRetried];
            if (tracing) trace_queue(now, "requeue req" + std::to_string(e.id));
          } else {
            ++resolved;
            ++tally[kFailed];
            if (tracing) trace_queue(now, "abandon req" + std::to_string(e.id));
            release_client(now);
          }
        }
        inflight[uu].clear();
        sample_depth(now);
        try_dispatch(now);
        break;
      }
      case Event::Kind::kScalerTick: {
        const std::size_t first = table.scale_events.size();
        spec.scaler->on_tick(now, queue.size(), rep.slo_cycles, table);
        for (std::size_t i = first; i < table.scale_events.size(); ++i) {
          const ScaleEvent& s = table.scale_events[i];
          if (s.up) {
            push_event(
                table.replicas[static_cast<std::size_t>(s.instance)]
                    .ready_cycle,
                Event::Kind::kReplicaReady, s.instance);
            ++tally[kScaleUps];
            if (tracing) {
              trace_replica(
                  now, s.instance,
                  "spawn class=" +
                      spec.classes[static_cast<std::size_t>(s.cls)].name);
            }
          } else {
            ++tally[kScaleDowns];
            if (tracing) trace_replica(now, s.instance, "retire");
          }
        }
        rep.unit_busy_cycles.resize(table.replicas.size(), 0);
        inflight.resize(table.replicas.size());
        if (resolved < n) {
          push_event(now + spec.scaler->interval_cycles(),
                     Event::Kind::kScalerTick, 0);
        }
        break;
      }
      case Event::Kind::kReplicaReady:
        if (tracing) trace_replica(now, ev.payload, "ready");
        try_dispatch(now);
        break;
      case Event::Kind::kReplicaFree:
      case Event::Kind::kTimer:
        try_dispatch(now);
        break;
    }
  }
  // Only nonzero tallies are added: a counter no event bumped stays absent
  // from the report.
  for (std::size_t t = 0; t < kNumTallies; ++t) {
    if (tally[t] != 0) rep.counters.add(kTallyNames[t], tally[t]);
  }
  if (!queue.empty()) {
    // Admitted work stranded because every executor died.
    rep.counters.add("serve.stranded", queue.size());
  }

  // ---- report assembly (serial, id order, linear time) ----
  // The completed records move to the front of `records`, in id order,
  // and the vector moves into the report. One scratch buffer then holds
  // each latency population in turn while its ranks are selected.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < un; ++i) {
    if (!completed[i]) continue;
    const LatencyRecord& r = records[i];
    rep.makespan_cycles = std::max(rep.makespan_cycles, r.complete_cycle);
    if (!r.slo_met) ++rep.slo_violations;
    records[kept++] = r;
  }
  records.resize(kept);
  rep.records = std::move(records);
  std::vector<std::uint64_t> scratch(kept);
  auto summarize = [&](std::uint64_t (LatencyRecord::*cycles)() const) {
    std::ranges::transform(rep.records, scratch.begin(), cycles);
    return summarize_latencies(scratch);
  };
  rep.latency = summarize(&LatencyRecord::total_cycles);
  rep.queue_wait = summarize(&LatencyRecord::queue_cycles);
  rep.service = summarize(&LatencyRecord::service_cycles);
  rep.max_queue_depth = queue.peak_depth();
  if (num_tenants > 1) {
    // Single-tenant runs leave this empty, keeping the report (and its
    // JSON) bit-identical to the pre-fleet format.
    rep.tenants = tenant_breakdowns(rep, tenant_by_id, num_tenants);
    for (TenantBreakdown& row : rep.tenants) {
      row.tier = spec.tenants[static_cast<std::size_t>(row.tenant)].tier;
    }
  }

  // Provisioned replica-cycles: spawn decision -> retirement (or
  // makespan). A replica spawned after the last completion contributes
  // nothing rather than negative time. A fixed table of R replicas
  // provisions R * makespan.
  std::uint64_t busy = 0;
  for (const std::uint64_t b : rep.unit_busy_cycles) busy += b;
  for (const ReplicaInstance& r : table.replicas) {
    const std::uint64_t end =
        r.retired ? r.retired_cycle : rep.makespan_cycles;
    if (end > r.provisioned_cycle) {
      run.replica_cycles += end - r.provisioned_cycle;
    }
  }
  rep.utilization = run.replica_cycles == 0
                        ? 0.0
                        : static_cast<double>(busy) /
                              static_cast<double>(run.replica_cycles);
  rep.completed_rps =
      rep.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(rep.records.size()) /
                (static_cast<double>(rep.makespan_cycles) / freq);
  rep.counters.add("serve.slo_violations", rep.slo_violations);
  rep.counters.add("serve.makespan_cycles", rep.makespan_cycles);
  rep.counters.add("serve.peak_queue_depth", rep.max_queue_depth);
  return run;
}

ServeReport serve_events(const BackendSpec& backend,
                         const ArrivalTrace& trace,
                         const ServePolicy& policy, Trace* event_trace) {
  backend.validate();
  ServeLoopSpec spec;
  spec.freq_hz = backend.freq_hz;
  spec.classes = {{"", backend.passes, backend.executors}};
  spec.replica_prefix = backend.executor_prefix;
  spec.failures = backend.failures;
  // One tenant per tag, up to the highest tag on the trace.
  int num_tenants = 1;
  for (const RequestArrival& a : trace.arrivals) {
    num_tenants = std::max(num_tenants, a.tenant + 1);
  }
  spec.tenants.resize(static_cast<std::size_t>(num_tenants));
  return serve_loop(spec, trace, policy, event_trace).report;
}

OnlineServeResult serve_online(const VitModel& model,
                               const AcceleratorSystem& sys,
                               const ArrivalTrace& trace,
                               const ServePolicy& policy,
                               ThreadPool* pool, Trace* event_trace) {
  trace.validate();
  policy.validate();
  const VitConfig& cfg = model.config();
  const auto un = static_cast<std::size_t>(trace.total_requests);

  OnlineServeResult out;
  out.features.resize(un);
  out.compute_cycles.resize(un);
  std::vector<ForwardStats> stats(un);

  // ---- phase 1: functional forwards (parallel, index-owned slots) ----
  // Request i's embeddings derive from trace.seed + i; each work item owns
  // slot i and builds its own single-unit AcceleratorSystem, so any worker
  // interleaving produces the serial loop's bits (PR 1 discipline).
  SystemConfig one = sys.config();
  one.num_units = 1;
  auto run_request = [&](std::size_t i) {
    const AcceleratorSystem unit(one);
    std::vector<float> x = random_embeddings(
        cfg, trace.seed + static_cast<std::uint64_t>(i));
    out.features[i] = model.forward_mixed(std::move(x), unit, &stats[i]);
    out.compute_cycles[i] = stats[i].total_cycles();
  };
  if (pool != nullptr) {
    pool->parallel_for(un, run_request);
  } else {
    for (std::size_t i = 0; i < un; ++i) run_request(i);
  }

  // ---- phase 2: the shared serial event loop ----
  const HbmConfig& hbm = sys.config().hbm;
  const std::uint64_t in_bytes =
      static_cast<std::uint64_t>(cfg.tokens()) *
      static_cast<std::uint64_t>(cfg.embed_dim) * sizeof(float);
  const std::uint64_t load_cycles =
      transfer_cycles(hbm, in_bytes, hbm.bfp_burst_bytes);
  // Features are tokens x d for every request of this model.
  const std::uint64_t store_cycles = load_cycles;

  BackendSpec backend;
  backend.executors = sys.config().num_units;
  BFP_REQUIRE(backend.executors >= 1, "serve_online: system has no units");
  backend.freq_hz = sys.config().pu.freq_hz;
  backend.passes.reserve(un);
  for (std::size_t i = 0; i < un; ++i) {
    backend.passes.push_back(
        {load_cycles, out.compute_cycles[i], store_cycles});
  }
  out.report = serve_events(backend, trace, policy, event_trace);

  // Functional-work counters, merged in request-id order (deterministic;
  // Counters is key-ordered, so merging after the loop changes nothing).
  for (std::size_t i = 0; i < un; ++i) {
    out.report.counters.add("serve.bfp_macs", stats[i].bfp_macs);
  }
  return out;
}

}  // namespace bfpsim
