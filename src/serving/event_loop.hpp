// The online request-serving engine: one deterministic virtual-time event
// loop that puts a table of replicas behind an admission queue.
//
// Execution is split the same way PR 1's batch engine splits it:
//
//  1. a *parallel functional phase* — every request's mixed bfp8/fp32
//     forward runs on its own simulated single-unit PU (index-owned
//     output slots, shared read-only model), giving per-request features
//     and modelled compute cycles for any worker count bit-identically;
//  2. a *serial virtual-time phase* — serve_loop() consumes the arrival
//     trace, pushes requests through the bounded admission queue
//     (serving/queue.hpp: priority tiers and per-tenant quotas on top of
//     the deadline order), and lets the SLO-aware continuous batcher form
//     batches on the fly: whenever a replica is free it takes up to
//     `max_batch` requests in queue order, dispatching early when the
//     head's SLO slack or the max-wait bound says waiting for a fuller
//     batch would cost more than it buys. Batch service times come from
//     the double-buffered pipeline timeline (fabric/pipeline.hpp), so a
//     request's completion is its own pass's store_end, not the batch
//     tail.
//
// The loop places each batch on the free replica whose class serves the
// head request cheapest (lowest instance id on ties, so a one-class table
// is a lowest-free-unit scan). Hard executor failures mark a replica dead:
// its in-flight batch is aborted and re-queued, up to
// ServePolicy::max_retries per request. Its one policy hook is the Scaler,
// which may spawn and retire replicas on a periodic tick; a null scaler is
// a fixed table. serve_events (a uniform executor pool, here) and
// serve_fleet (fleet/fleet_loop.hpp: replica classes, tenants, autoscaler)
// are two configurations of this one loop.
//
// Determinism contract: the event queue orders by (cycle, push sequence),
// every tie-break is explicit, and the loop itself is serial — worker
// count only affects phase 1, whose slots are index-owned. Same trace +
// policy => bit-identical records, percentiles, and counters.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fabric/pipeline.hpp"
#include "fabric/system.hpp"
#include "reliability/fault_model.hpp"
#include "serving/metrics.hpp"
#include "serving/queue.hpp"
#include "serving/workload.hpp"
#include "sim/trace.hpp"
#include "transformer/model.hpp"

namespace bfpsim {

/// Knobs of the admission queue and the continuous batcher.
struct ServePolicy {
  std::size_t queue_capacity = 64;
  DropPolicy drop_policy = DropPolicy::kRejectNewest;

  int max_batch = 4;  ///< per-unit batch size cap

  /// Longest a head-of-queue request may wait for a fuller batch before a
  /// partial batch is forced out.
  std::uint64_t max_wait_cycles = 30000;

  /// Latency SLO per request (arrival -> complete), converted to cycles at
  /// the system frequency. The batcher dispatches a partial batch early
  /// when waiting longer would push the head request past its deadline.
  double slo_ms = 5.0;

  /// Re-dispatch attempts an admitted request gets after its executor
  /// dies mid-batch, before it is abandoned (counted serve.failed). Only
  /// consulted when the run has failures (BackendSpec::failures, or
  /// FleetSpec::failures from Session::FleetConfig::card_failures).
  int max_retries = 3;

  void validate() const;
};

/// What stands behind the admission queue: a uniform pool of batch
/// executors. The event loop does not care what one executor *is* — a
/// single PU-unit of one card (serve_online) or an entire sharded
/// multi-card replica (a one-class fleet, fleet/fleet_loop.hpp) — only
/// what each request's pass costs on it.
struct BackendSpec {
  int executors = 1;         ///< identical executors behind the queue
  double freq_hz = 300.0e6;  ///< fabric frequency, for SLO conversion
  /// Per request id: the load/compute/store cycles of one service pass on
  /// an executor (indexed by RequestArrival::id; batches pipeline these
  /// double-buffered).
  std::vector<PassSpec> passes;
  /// Event-trace component prefix ("unit" -> unit0, unit1, ...).
  std::string executor_prefix = "unit";

  /// Hard executor failures in virtual time (reliability subsystem). At
  /// each failure cycle the executor goes permanently dead: its in-flight
  /// batch is aborted and the affected requests are re-queued onto the
  /// survivors (up to ServePolicy::max_retries each). Empty (default) =
  /// today's behaviour, bit for bit.
  std::vector<ExecutorFailure> failures;

  void validate() const;
};

/// The serial virtual-time phase alone: consume the arrival trace, push
/// requests through the bounded admission queue, batch onto `backend`'s
/// executors. Tenant tags on the trace give one tenant per tag up to the
/// highest ("tenant<k>" in the report), all on the policy SLO and tier 0.
/// Same trace + policy + backend => bit-identical report (the loop is
/// serial; there is nothing for a thread pool to do here).
ServeReport serve_events(const BackendSpec& backend,
                         const ArrivalTrace& trace,
                         const ServePolicy& policy,
                         Trace* event_trace = nullptr);

/// A replica class's per-request pass table, borrowed from its owner.
using PassTable = std::span<const PassSpec>;

/// One provisioned replica in the loop's table. Instance ids are dense and
/// monotone (never reused), so a retired replica's id — and its
/// Chrome-trace lane — stays retired forever.
struct ReplicaInstance {
  int instance = 0;   ///< dense monotone id (== index in the table)
  int cls = 0;        ///< index into the loop's classes
  std::uint64_t ready_cycle = 0;   ///< spawn + cold start
  std::uint64_t busy_until = 0;
  bool retired = false;
  std::uint64_t provisioned_cycle = 0;  ///< when the spawn was decided
  std::uint64_t retired_cycle = 0;      ///< valid iff retired
  /// The executor failed: never dispatched again, but still provisioned
  /// (it is not retired, so it keeps costing replica-cycles).
  bool dead = false;
};

/// pass.load + compute + store for request `id` in one class's table.
std::uint64_t class_service_estimate(PassTable passes, int id);

/// One scaler action, in decision order.
struct ScaleEvent {
  std::uint64_t cycle = 0;
  bool up = false;    ///< spawn (true) or retire (false)
  int instance = 0;   ///< replica instance id
  int cls = 0;        ///< replica class index
};

/// The replica table plus the ledger of scaler actions on it.
///
/// `replicas` is the full ledger of every instance ever created, which
/// report assembly walks. A long autoscaled run creates far more instances
/// than are ever live at once, so everything that picks or counts per
/// event (placement, spawn class, retirement, the scaler tick) walks
/// `active` instead and costs O(live replicas), not O(fleet history).
struct ReplicaTable {
  std::vector<ReplicaInstance> replicas;  ///< instance-id order
  /// Ids of the instances not retired (ready, cold or dead), ascending:
  /// walking it in order keeps every lowest/highest-id tie rule.
  std::vector<int> active;
  std::vector<ScaleEvent> scale_events;   ///< spawn()/retire() calls
  int peak = 0;  ///< max of active.size() over the run

  /// Provision one replica of class `cls`, dispatchable from `ready_at`.
  int add(int cls, std::uint64_t now, std::uint64_t ready_at);
  /// add() as a scaler action, recorded in the ledger.
  int spawn(int cls, std::uint64_t now, std::uint64_t ready_at);
  /// Retire live `instance` at `now`, recorded in the ledger.
  void retire(int instance, std::uint64_t now);
};

/// Free replica (ready, idle, neither retired nor dead) whose class serves
/// request `head_id` cheapest, tie-broken by lowest instance id; -1 if
/// none is free. `class_passes[c]` is class c's per-request pass table.
int pick_replica(const ReplicaTable& table,
                 std::span<const PassTable> class_passes, std::uint64_t now,
                 int head_id);

/// The loop's one policy hook. The loop ticks it every interval_cycles()
/// from one interval in, until every request is resolved, and reports
/// every completion to it.
class Scaler {
 public:
  virtual std::uint64_t interval_cycles() const = 0;
  /// A completed request's arrival -> complete latency.
  virtual void on_completion(std::uint64_t latency_cycles) = 0;
  /// One tick at `now`: spawn or retire replicas through `table`.
  virtual void on_tick(std::uint64_t now, std::size_t queue_depth,
                       std::uint64_t slo_cycles, ReplicaTable& table) = 0;

 protected:
  ~Scaler() = default;  ///< the loop never owns its scaler
};

/// One class of replicas behind the loop.
struct ServeClass {
  std::string name;  ///< named in spawn trace events
  PassTable passes;  ///< per request id
  int initial_replicas = 0;  ///< provisioned ready at cycle 0
};

/// One tenant's admission terms.
struct ServeTenant {
  double slo_ms = 0.0;  ///< latency SLO; 0 inherits ServePolicy::slo_ms
  int tier = 0;         ///< priority tier, 0 = highest
};

/// Everything the loop needs besides the trace and the batcher policy.
/// The caller validates it: a positive frequency, at least one initial
/// replica, failures naming initial replicas, and at least one tenant.
struct ServeLoopSpec {
  double freq_hz = 300.0e6;
  std::vector<ServeClass> classes;
  std::string replica_prefix;  ///< event-trace component prefix
  std::span<const ExecutorFailure> failures;  ///< by replica instance id
  std::vector<ServeTenant> tenants = {ServeTenant{}};  ///< by tenant tag
  std::vector<std::size_t> quota_slots;  ///< per tenant; empty = none
  Scaler* scaler = nullptr;              ///< null = fixed replica table
};

/// What one loop run produced besides the report.
struct ServeLoopRun {
  ServeReport report;  ///< tenant rows named "tenant<k>"
  ReplicaTable table;  ///< final replica table and scaler ledger
  /// Per replica, provisioning to retirement (or makespan), summed.
  std::uint64_t replica_cycles = 0;
};

/// The one serving loop. Replica events in `event_trace` carry pid =
/// instance id, a stable Chrome-trace lane per replica. Observation is
/// free when off: with no enabled trace no event text is built, and the
/// per-event counters are tallied in plain integers and added to
/// report.counters once, after the loop.
ServeLoopRun serve_loop(const ServeLoopSpec& spec, const ArrivalTrace& trace,
                        const ServePolicy& policy, Trace* event_trace);

/// Outcome of one serving run.
struct OnlineServeResult {
  ServeReport report;
  /// Functional block outputs per request id. Forwards run for all ids up
  /// front (that is what makes phase 1 parallelizable), so every slot is
  /// populated even for requests the queue later rejected.
  std::vector<std::vector<float>> features;
  std::vector<std::uint64_t> compute_cycles;  ///< modelled, per request id
};

/// Serve `trace` against `model` on the multi-unit `sys`.
///
/// `pool` parallelizes the functional forwards only (nullptr = serial);
/// `event_trace`, when non-null and enabled, receives cycle-stamped
/// queue/unit events (components "queue", "unit<k>") suitable for
/// Trace::to_chrome_json().
OnlineServeResult serve_online(const VitModel& model,
                               const AcceleratorSystem& sys,
                               const ArrivalTrace& trace,
                               const ServePolicy& policy,
                               ThreadPool* pool = nullptr,
                               Trace* event_trace = nullptr);

}  // namespace bfpsim
