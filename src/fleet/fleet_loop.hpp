// Fleet-scale serving: one admission queue, many replicas of differing
// shapes, several tenants, and a virtual-time autoscaler.
//
// serve_fleet is a configuration of the serving layer's one event loop
// (serve_loop in serving/event_loop.hpp), not a loop of its own. It maps
// a FleetSpec onto the loop and assembles the FleetReport:
//
//  * each replica class becomes a loop class (its pass table referenced,
//    not copied), so the loop places each batch on the free replica that
//    serves the head request cheapest (classes differ in card count and
//    partition strategy, so their per-request pass costs differ);
//  * each tenant becomes a loop tenant with its tier and SLO override, and
//    the TenantSet's quota slots bound the admission queue per tenant;
//  * an enabled autoscaler becomes the loop's scaler hook: on each tick
//    the Autoscaler decides, and the router's pick_spawn_class/pick_retire
//    choose which class to add — paying an explicit cold-start latency —
//    and which idle replica to retire.
//
// With the autoscaler off, one tenant, one replica class and a fixed
// replica count, the configuration is the one serve_events uses, so the
// report matches its uniform executor pool record for record. Replicated
// sharded clusters are served this way (Session::serve_fleet with one
// class). And like every loop in this repo, the virtual-time phase is
// serial: thread count only touches the functional forwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/autoscaler.hpp"
#include "fleet/tenant.hpp"
#include "serving/event_loop.hpp"

namespace bfpsim {

/// One shape of replica the fleet may provision: `cards` cards running
/// `strategy` partitioning, costed by a per-request pass table from the
/// cluster cost model.
struct ReplicaClassSpec {
  std::string name;      ///< e.g. "1xpipeline", "2xtensor"
  int cards = 1;         ///< cards per replica (reporting)
  std::string strategy;  ///< partition strategy name (reporting)
  std::vector<PassSpec> passes;  ///< per request id, like BackendSpec
  int initial_replicas = 1;      ///< provisioned ready at cycle 0
  int max_replicas = 8;          ///< autoscaler cap (live instances)
};

/// Everything serve_fleet needs besides the trace and the batcher policy.
struct FleetSpec {
  double freq_hz = 300.0e6;
  std::vector<ReplicaClassSpec> classes;
  TenantSet tenants;          ///< empty = one anonymous tenant
  AutoscalerPolicy autoscaler;
  std::string replica_prefix = "replica";
  /// Hard replica failures in virtual time, by instance id of an initial
  /// replica (numbered in class order). Empty = none.
  std::vector<ExecutorFailure> failures;

  void validate(int total_requests) const;
};

/// One autoscaler action, in decision order.
using FleetScaleEvent = ScaleEvent;

/// A replica class as reported (the pass table stays in the spec).
struct FleetClassInfo {
  std::string name;
  int cards = 1;
  std::string strategy;
  int initial_replicas = 0;
  int max_replicas = 0;
};

/// A fleet run's outcome: the familiar serving report (records indexed by
/// replica instance id in LatencyRecord::unit) plus the fleet ledger.
struct FleetReport {
  ServeReport serve;

  std::vector<FleetClassInfo> classes;  ///< spec order

  std::vector<FleetScaleEvent> scale_events;  ///< decision order
  std::vector<ReplicaInstance> replicas;      ///< final table, id order

  /// Provisioned replica-cycles: for each instance, spawn decision to
  /// retirement (or makespan). Cold starts are paid for — a replica costs
  /// cycles from the moment it is provisioned, not the moment it is
  /// usable. The static peak-sized fleet's figure is
  /// peak_replicas * makespan; an autoscaler earns its keep by holding
  /// the SLO on strictly fewer.
  std::uint64_t replica_cycles = 0;
  int peak_replicas = 0;  ///< max simultaneously live (ready or cold)

  /// Stable-key JSON: {"fleet":{...}, "serve":<ServeReport::to_json()>}.
  std::string to_json() const;
};

/// Run the fleet loop. Tenant tags ride on trace.arrivals (assign_tenants);
/// per-tenant SLO overrides come from spec.tenants. `event_trace` events
/// from replicas carry per-instance Chrome-trace pids (stable lanes even
/// across spawn/retire churn).
FleetReport serve_fleet(const FleetSpec& spec, const ArrivalTrace& trace,
                        const ServePolicy& policy,
                        Trace* event_trace = nullptr);

}  // namespace bfpsim
