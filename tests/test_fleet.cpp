// Tests for the fleet-scale serving subsystem: the tiered/quota'd
// admission queue, the weighted-round-robin tenant stamping, the
// autoscaler state machine, the heterogeneous router, and the fleet event
// loop itself — including its two headline contracts:
//
//  * degenerate equivalence: autoscaler off + one tenant + one class +
//    fixed replicas reproduces the serve_cluster report record for record
//    (and byte for byte as JSON), and
//  * determinism: fleet reports, scale decisions, tenant breakdowns, and
//    Chrome traces are bit-identical for any ThreadPool size and across
//    repeated fixed-seed runs.
#include "fleet/fleet_loop.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/cluster_serving.hpp"
#include "common/error.hpp"
#include "fleet/autoscaler.hpp"
#include "fleet/router.hpp"
#include "fleet/tenant.hpp"
#include "runtime/session.hpp"
#include "serving/metrics.hpp"
#include "serving/queue.hpp"
#include "serving/workload.hpp"
#include "sim/trace.hpp"

namespace bfpsim {
namespace {

// ---- tiered / quota'd admission queue -------------------------------------

TEST(FleetAdmission, SingleTenantReducesToAdmissionQueue) {
  // One tenant owning the whole capacity: same order, same victims, same
  // counters as the bounded deadline queue without quotas.
  AdmissionQueue q(2, DropPolicy::kShedOldest, {2});
  EXPECT_TRUE(q.push({0, 0, 100, 0, 0}).admitted);
  EXPECT_TRUE(q.push({1, 1, 101, 0, 0}).admitted);
  const PushOutcome third = q.push({2, 2, 102, 0, 0});
  EXPECT_TRUE(third.admitted);
  ASSERT_TRUE(third.had_victim);
  EXPECT_EQ(third.victim.id, 0);  // shed-oldest sheds the front
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.quota_rejected(), 0u);
  EXPECT_EQ(q.pop().id, 1);
  EXPECT_EQ(q.pop().id, 2);

  AdmissionQueue r(2, DropPolicy::kRejectNewest, {2});
  EXPECT_TRUE(r.push({0, 0, 100, 0, 0}).admitted);
  EXPECT_TRUE(r.push({1, 1, 101, 0, 0}).admitted);
  const PushOutcome rej = r.push({2, 2, 102, 0, 0});
  EXPECT_FALSE(rej.admitted);
  EXPECT_FALSE(rej.had_victim);
  EXPECT_EQ(r.rejected(), 1u);
  EXPECT_EQ(r.front().id, 0);
}

TEST(FleetAdmission, PopsByTierThenDeadlineThenId) {
  AdmissionQueue q(8, DropPolicy::kRejectNewest, {8, 8});
  (void)q.push({0, 0, 500, 0, 1});  // tier 1, early deadline
  (void)q.push({1, 1, 900, 0, 0});  // tier 0, late deadline
  (void)q.push({2, 2, 400, 1, 0});  // tier 0, early deadline
  (void)q.push({3, 3, 400, 1, 1});  // tier 1, same deadline as id 0? no: 400
  EXPECT_EQ(q.pop().id, 2);  // tier 0 before tier 1, then deadline
  EXPECT_EQ(q.pop().id, 1);
  EXPECT_EQ(q.pop().id, 3);  // within tier 1: deadline 400 before 500
  EXPECT_EQ(q.pop().id, 0);
}

TEST(FleetAdmission, QuotaRejectsEvenWithRoom) {
  // Tenant 0 owns 1 slot of 4: its second concurrent request is quota-
  // rejected although the queue is nearly empty.
  AdmissionQueue q(4, DropPolicy::kRejectNewest, {1, 3});
  EXPECT_TRUE(q.push({0, 0, 100, 0, 0}).admitted);
  const PushOutcome over = q.push({1, 1, 101, 0, 0});
  EXPECT_FALSE(over.admitted);
  EXPECT_TRUE(over.quota_rejected);
  EXPECT_EQ(q.quota_rejected(), 1u);
  EXPECT_EQ(q.rejected(), 0u);
  EXPECT_EQ(q.held(0), 1u);
  // Popping releases the slot; the tenant can then admit again.
  (void)q.pop();
  EXPECT_EQ(q.held(0), 0u);
  EXPECT_TRUE(q.push({2, 2, 102, 0, 0}).admitted);
}

TEST(FleetAdmission, FullQueueShedsStrictlyLowerTierOnly) {
  AdmissionQueue q(2, DropPolicy::kRejectNewest, {2, 2});
  (void)q.push({0, 0, 100, 0, 1});  // tier 1
  (void)q.push({1, 1, 101, 0, 1});  // tier 1
  // A tier-0 newcomer sheds the queue tail (worst tier, latest deadline).
  const PushOutcome urgent = q.push({2, 2, 102, 1, 0});
  EXPECT_TRUE(urgent.admitted);
  ASSERT_TRUE(urgent.had_victim);
  EXPECT_EQ(urgent.victim.id, 1);
  EXPECT_EQ(q.shed(), 1u);
  // A newcomer whose tier only ties the tail falls back to the drop
  // policy (reject-newest): the tail is tier 1 and so is the newcomer.
  const PushOutcome equal = q.push({3, 3, 103, 1, 1});
  EXPECT_FALSE(equal.admitted);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(FleetAdmission, RequeueBypassesCapacityAndQuota) {
  AdmissionQueue q(1, DropPolicy::kRejectNewest, {1});
  (void)q.push({0, 0, 100, 0, 0});
  q.requeue({1, 1, 50, 0, 0});  // retry path: already admitted once
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().id, 1);  // earlier deadline
}

// ---- tenants ---------------------------------------------------------------

TEST(FleetTenants, QuotaSlotsAreProportionalAndNonStarving) {
  TenantSet set;
  set.tenants = {{"a", 0, 2.0, 0.0}, {"b", 1, 1.0, 0.0}, {"c", 1, 0.1, 0.0}};
  const std::vector<std::size_t> slots = set.quota_slots(31);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0], 20u);  // floor(31 * 2.0/3.1)
  EXPECT_EQ(slots[1], 10u);
  EXPECT_EQ(slots[2], 1u);   // clamped up from floor(1.0) = 1
  // Single tenant owns everything.
  TenantSet one;
  one.tenants = {{"solo", 0, 1.0, 0.0}};
  EXPECT_EQ(one.quota_slots(16)[0], 16u);
}

TEST(FleetTenants, AssignTenantsIsSmoothAndDeterministic) {
  TenantSet set;
  set.tenants = {{"a", 0, 2.0, 0.0}, {"b", 1, 1.0, 0.0}};
  ArrivalTrace t = poisson_trace(90, 1000.0, 3);
  assign_tenants(&t, set);
  int counts[2] = {0, 0};
  for (const RequestArrival& r : t.arrivals) {
    ASSERT_GE(r.tenant, 0);
    ASSERT_LT(r.tenant, 2);
    ++counts[r.tenant];
  }
  EXPECT_EQ(counts[0], 60);  // exactly proportional over a full cycle
  EXPECT_EQ(counts[1], 30);
  // Smooth, not blocky: tenant b appears within the first 3 arrivals.
  EXPECT_TRUE(t.arrivals[0].tenant == 1 || t.arrivals[1].tenant == 1 ||
              t.arrivals[2].tenant == 1);
  // Pure function of (ids, weights): same inputs, same tags.
  ArrivalTrace u = poisson_trace(90, 1000.0, 3);
  assign_tenants(&u, set);
  for (std::size_t i = 0; i < t.arrivals.size(); ++i) {
    EXPECT_EQ(t.arrivals[i].tenant, u.arrivals[i].tenant);
  }
  // Empty tenant set leaves the trace untouched.
  ArrivalTrace v = poisson_trace(10, 1000.0, 3);
  assign_tenants(&v, TenantSet{});
  for (const RequestArrival& r : v.arrivals) EXPECT_EQ(r.tenant, 0);
}

TEST(FleetTenants, ValidateRejectsBadSpecs) {
  TenantSet bad_weight;
  bad_weight.tenants = {{"a", 0, 0.0, 0.0}};
  EXPECT_THROW(bad_weight.validate(), Error);
  TenantSet bad_tier;
  bad_tier.tenants = {{"a", -1, 1.0, 0.0}};
  EXPECT_THROW(bad_tier.validate(), Error);
  TenantSet ok;
  ok.tenants = {{"a", 0, 1.0, 2.5}};
  EXPECT_NO_THROW(ok.validate());
}

// ---- workload generators ---------------------------------------------------

TEST(FleetWorkload, DiurnalTraceIsSeededSortedAndDense) {
  const ArrivalTrace a = diurnal_trace(64, 500.0, 4000.0, 10e-3, 11);
  const ArrivalTrace b = diurnal_trace(64, 500.0, 4000.0, 10e-3, 11);
  const ArrivalTrace c = diurnal_trace(64, 500.0, 4000.0, 10e-3, 12);
  ASSERT_EQ(a.arrivals.size(), 64u);
  bool differs = false;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].cycle, b.arrivals[i].cycle);
    EXPECT_EQ(a.arrivals[i].id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(a.arrivals[i].cycle, a.arrivals[i - 1].cycle);
    }
    differs = differs || a.arrivals[i].cycle != c.arrivals[i].cycle;
  }
  EXPECT_TRUE(differs) << "different seeds must give different traces";
  EXPECT_DOUBLE_EQ(a.offered_rps, 0.5 * (500.0 + 4000.0));
}

TEST(FleetWorkload, MmppTraceIsSeededSortedAndDense) {
  const ArrivalTrace a = mmpp_trace(64, 500.0, 6000.0, 4e-3, 1e-3, 21);
  const ArrivalTrace b = mmpp_trace(64, 500.0, 6000.0, 4e-3, 1e-3, 21);
  ASSERT_EQ(a.arrivals.size(), 64u);
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].cycle, b.arrivals[i].cycle);
    EXPECT_EQ(a.arrivals[i].id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(a.arrivals[i].cycle, a.arrivals[i - 1].cycle);
    }
  }
  EXPECT_GT(a.offered_rps, 500.0);
  EXPECT_LT(a.offered_rps, 6000.0);
}

// ---- autoscaler state machine ----------------------------------------------

TEST(FleetAutoscaler, ScalesUpOnQueueDepthAndP95Pressure) {
  AutoscalerPolicy p;
  p.enabled = true;
  p.up_queue_per_replica = 4.0;
  p.cooldown_cycles = 100;
  Autoscaler up_on_depth(p);
  // depth 9 > 4 * (1 ready + 1 pending) -> spawn.
  EXPECT_EQ(up_on_depth.evaluate(1000, 9, 1, 1, 10000).spawn, p.scale_step);
  // depth 8 == threshold -> no action.
  Autoscaler idle(p);
  EXPECT_EQ(idle.evaluate(1000, 8, 1, 1, 10000).spawn, 0);
  // p95 at the SLO triggers even with a shallow queue.
  Autoscaler up_on_p95(p);
  for (int i = 0; i < 8; ++i) up_on_p95.observe_completion(20000);
  EXPECT_EQ(up_on_p95.window_p95(), 20000u);
  EXPECT_EQ(up_on_p95.evaluate(1000, 1, 1, 0, 10000).spawn, p.scale_step);
}

TEST(FleetAutoscaler, CooldownAndRetireRules) {
  AutoscalerPolicy p;
  p.enabled = true;
  p.cooldown_cycles = 500;
  p.down_headroom = 0.5;
  p.min_replicas = 1;
  Autoscaler a(p);
  // First tick: spawn. Second tick inside the cooldown: nothing, even
  // under pressure.
  EXPECT_GT(a.evaluate(100, 50, 1, 0, 10000).spawn, 0);
  EXPECT_EQ(a.evaluate(200, 50, 1, 0, 10000).spawn, 0);
  // After the cooldown, an idle over-provisioned fleet retires one...
  for (int i = 0; i < 8; ++i) a.observe_completion(1000);  // p95 well under
  const ScaleDecision down = a.evaluate(700, 0, 3, 0, 10000);
  EXPECT_EQ(down.spawn, 0);
  EXPECT_TRUE(down.retire);
  // ...but never below min_replicas.
  Autoscaler floor_guard(p);
  for (int i = 0; i < 8; ++i) floor_guard.observe_completion(1000);
  EXPECT_FALSE(floor_guard.evaluate(700, 0, 1, 0, 10000).retire);
}

TEST(FleetAutoscaler, WindowP95IsNearestRankOverRecentCompletions) {
  AutoscalerPolicy p;
  p.enabled = true;
  p.window = 4;
  Autoscaler a(p);
  EXPECT_EQ(a.window_p95(), 0u);  // empty window
  a.observe_completion(7);
  EXPECT_EQ(a.window_p95(), 7u);  // n=1
  a.observe_completion(3);
  a.observe_completion(9);
  a.observe_completion(1);
  EXPECT_EQ(a.window_p95(), 9u);
  // Ring buffer: a 5th completion evicts the oldest (7).
  a.observe_completion(2);
  EXPECT_EQ(a.window_p95(), 9u);
  a.observe_completion(4);  // evicts 3
  a.observe_completion(5);  // evicts 9 -> window {1,2,4,5}
  EXPECT_EQ(a.window_p95(), 5u);
}

TEST(FleetAutoscaler, PolicyValidation) {
  AutoscalerPolicy bad;
  bad.enabled = true;
  bad.interval_cycles = 0;
  EXPECT_THROW(bad.validate(), Error);
  AutoscalerPolicy neg;
  neg.enabled = true;
  neg.down_headroom = 1.5;
  EXPECT_THROW(neg.validate(), Error);
  // A disabled policy's knobs are never consulted, so they never throw.
  AutoscalerPolicy off;
  off.interval_cycles = 0;
  EXPECT_NO_THROW(off.validate());
  EXPECT_NO_THROW(AutoscalerPolicy{}.validate());
}

// ---- router ----------------------------------------------------------------

std::vector<ReplicaInstance> three_replicas() {
  // instance 0: class 0, ready; 1: class 1, ready; 2: class 0, cold.
  ReplicaInstance r0{0, 0, 0, 0, false, 0, 0};
  ReplicaInstance r1{1, 1, 0, 0, false, 0, 0};
  ReplicaInstance r2{2, 0, 1000, 0, false, 0, 0};
  return {r0, r1, r2};
}

TEST(FleetRouter, PlacementPrefersCheapestClassThenLowestInstance) {
  const std::vector<PassSpec> c0 = {{10, 100, 10}};  // 120 cycles for req 0
  const std::vector<PassSpec> c1 = {{10, 50, 10}};   // 70 cycles
  const std::vector<PassTable> passes = {c0, c1};
  auto reps = three_replicas();
  EXPECT_EQ(pick_replica(reps, passes, 0, 0), 1);  // cheaper class wins
  reps[1].busy_until = 2000;                       // class-1 replica busy
  EXPECT_EQ(pick_replica(reps, passes, 0, 0), 0);  // lowest free id
  reps[0].busy_until = 2000;
  EXPECT_EQ(pick_replica(reps, passes, 0, 0), -1);  // instance 2 still cold
  EXPECT_EQ(pick_replica(reps, passes, 1000, 0), 2);  // warm now, rest busy
}

TEST(FleetRouter, HomogeneousPlacementIsLowestFreeInstance) {
  // The serve_events executor scan: with one class, the router must pick
  // the lowest free instance id, every time.
  const std::vector<PassSpec> c0 = {{10, 100, 10}};
  const std::vector<PassTable> passes = {c0};
  std::vector<ReplicaInstance> reps;
  for (int i = 0; i < 3; ++i) reps.push_back({i, 0, 0, 0, false, 0, 0});
  EXPECT_EQ(pick_replica(reps, passes, 0, 0), 0);
  reps[0].busy_until = 10;
  EXPECT_EQ(pick_replica(reps, passes, 0, 0), 1);
}

TEST(FleetRouter, SpawnAndRetireChoices) {
  const std::vector<PassSpec> c0 = {{10, 100, 10}};  // expensive
  const std::vector<PassSpec> c1 = {{10, 50, 10}};   // cheap
  const std::vector<PassTable> passes = {c0, c1};
  auto reps = three_replicas();
  // Cheapest class with headroom; class 1 at cap -> class 0.
  EXPECT_EQ(pick_spawn_class(reps, passes, {4, 2}), 1);
  EXPECT_EQ(pick_spawn_class(reps, passes, {4, 1}), 0);
  EXPECT_EQ(pick_spawn_class(reps, passes, {2, 1}), -1);  // all at cap
  // Retire the most expensive idle replica, newest first on ties.
  EXPECT_EQ(pick_retire(reps, passes, 0), 0);  // class 0 costs more
  reps.push_back({3, 0, 0, 0, false, 0, 0});
  EXPECT_EQ(pick_retire(reps, passes, 0), 3);  // tie -> highest instance
  reps[0].retired = true;
  reps[3].busy_until = 99;
  EXPECT_EQ(pick_retire(reps, passes, 0), 1);  // only the cheap one idle
}

// ---- the fleet loop --------------------------------------------------------

FleetSpec tiny_fleet_spec(int requests, int replicas) {
  FleetSpec spec;
  ReplicaClassSpec c;
  c.name = "1xpipeline";
  c.cards = 1;
  c.strategy = "pipeline";
  c.passes.assign(static_cast<std::size_t>(requests), PassSpec{50, 400, 50});
  c.initial_replicas = replicas;
  c.max_replicas = replicas;
  spec.classes = {c};
  return spec;
}

TEST(FleetLoop, ValidateRejectsBrokenSpecs) {
  const ArrivalTrace trace = poisson_trace(4, 1000.0, 1);
  FleetSpec no_classes;
  EXPECT_THROW(serve_fleet(no_classes, trace, ServePolicy{}), Error);
  FleetSpec short_passes = tiny_fleet_spec(2, 1);  // table shorter than trace
  EXPECT_THROW(serve_fleet(short_passes, trace, ServePolicy{}), Error);
  FleetSpec zero_fleet = tiny_fleet_spec(4, 1);
  zero_fleet.classes[0].initial_replicas = 0;
  EXPECT_THROW(serve_fleet(zero_fleet, trace, ServePolicy{}), Error);
}

TEST(FleetLoop, SingleTenantReportHasNoTenantSection) {
  // The degenerate report must be byte-identical to pre-fleet output:
  // no "tenants" key anywhere.
  const ArrivalTrace trace = poisson_trace(6, 2000.0, 5);
  const FleetReport rep =
      serve_fleet(tiny_fleet_spec(6, 2), trace, ServePolicy{});
  EXPECT_TRUE(rep.serve.tenants.empty());
  EXPECT_EQ(rep.serve.to_json().find("\"tenants\""), std::string::npos);
  EXPECT_EQ(rep.serve.records.size() + rep.serve.rejected_ids.size(), 6u);
}

TEST(FleetLoop, PerTenantBreakdownsPartitionTheReport) {
  TenantSet set;
  set.tenants = {{"gold", 0, 2.0, 0.0}, {"bronze", 1, 1.0, 0.0}};
  ArrivalTrace trace = poisson_trace(24, 6000.0, 9);
  assign_tenants(&trace, set);
  FleetSpec spec = tiny_fleet_spec(24, 2);
  spec.tenants = set;
  const FleetReport rep = serve_fleet(spec, trace, ServePolicy{});
  ASSERT_EQ(rep.serve.tenants.size(), 2u);
  EXPECT_EQ(rep.serve.tenants[0].name, "gold");
  EXPECT_EQ(rep.serve.tenants[1].tier, 1);
  std::size_t completed = 0, rejected = 0;
  for (const TenantBreakdown& t : rep.serve.tenants) {
    completed += t.completed;
    rejected += t.rejected;
    EXPECT_EQ(t.latency.count, t.completed);
  }
  EXPECT_EQ(completed, rep.serve.records.size());
  EXPECT_EQ(rejected, rep.serve.rejected_ids.size());
  EXPECT_NE(rep.serve.to_json().find("\"tenants\""), std::string::npos);
}

TEST(FleetLoop, TenantBreakdownSmallPopulationEdges) {
  // n=0 and n=1 per-tenant percentile edges, via the report helper.
  ServeReport rep;
  LatencyRecord only;
  only.id = 0;
  only.arrival_cycle = 0;
  only.complete_cycle = 42;
  only.tenant = 1;
  only.slo_met = true;
  rep.records = {only};
  const std::vector<TenantBreakdown> t =
      tenant_breakdowns(rep, {1}, 2);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].completed, 0u);       // tenant 0 served nothing
  EXPECT_EQ(t[0].latency.count, 0u);
  EXPECT_EQ(t[0].latency.p99, 0u);
  EXPECT_EQ(t[1].completed, 1u);       // tenant 1: n=1 percentiles collapse
  EXPECT_EQ(t[1].latency.p50, 42u);
  EXPECT_EQ(t[1].latency.p99, 42u);
  EXPECT_EQ(t[1].latency.max, 42u);
}

TEST(FleetLoop, AutoscalerHoldsSloWithFewerReplicaCyclesThanPeakFleet) {
  // The bench's acceptance inequality, in miniature: on a diurnal day the
  // autoscaled fleet must hold the p95 SLO using strictly fewer
  // provisioned replica-cycles than a static fleet sized for the peak.
  const int n = 96;
  const std::uint64_t req_cycles = 30000;  // ~0.1 ms at 300 MHz
  const double replica_rps = kDefaultFreqHz / static_cast<double>(req_cycles);
  const double peak = 0.85 * 4 * replica_rps;
  const ArrivalTrace trace =
      diurnal_trace(n, peak / 6.0, peak, 12e-3, 1);
  ServePolicy policy;
  policy.queue_capacity = 64;
  policy.slo_ms = 5.0;

  FleetSpec fixed;
  ReplicaClassSpec c;
  c.name = "1xpipeline";
  c.cards = 1;
  c.strategy = "pipeline";
  c.passes.assign(n, PassSpec{0, req_cycles, 0});
  c.initial_replicas = 4;
  c.max_replicas = 4;
  fixed.classes = {c};
  const FleetReport peak_rep = serve_fleet(fixed, trace, policy);

  FleetSpec scaled = fixed;
  scaled.classes[0].initial_replicas = 1;
  scaled.classes[0].max_replicas = 6;
  scaled.autoscaler.enabled = true;
  scaled.autoscaler.interval_cycles = 150000;   // 0.5 ms
  scaled.autoscaler.cold_start_cycles = 300000; // 1 ms
  scaled.autoscaler.cooldown_cycles = 150000;
  scaled.autoscaler.up_queue_per_replica = 3.0;
  const FleetReport auto_rep = serve_fleet(scaled, trace, policy);

  const auto slo_cycles =
      static_cast<std::uint64_t>(policy.slo_ms * 1e-3 * kDefaultFreqHz);
  EXPECT_LE(auto_rep.serve.latency.p95, slo_cycles);
  EXPECT_LT(auto_rep.replica_cycles, peak_rep.replica_cycles);
  EXPECT_FALSE(auto_rep.scale_events.empty());
  EXPECT_GT(auto_rep.peak_replicas, 1);
  // The ledger is consistent: every scale event names a live-at-the-time
  // instance, and the replica table records both directions.
  int spawned = 0, retired = 0;
  for (const FleetScaleEvent& e : auto_rep.scale_events) {
    ASSERT_GE(e.instance, 0);
    ASSERT_LT(static_cast<std::size_t>(e.instance),
              auto_rep.replicas.size());
    e.up ? ++spawned : ++retired;
  }
  EXPECT_EQ(auto_rep.replicas.size(), 1u + static_cast<std::size_t>(spawned));
}

TEST(FleetLoop, ReplicaTracePidsAreStableAcrossChurn) {
  // Spawned replicas get their own Chrome-trace lane (pid = instance id),
  // and a trace with no record_pid events renders exactly as before.
  Trace plain;
  plain.enable(true);
  plain.record(10, "queue", "enqueue id=0");
  plain.record(20, "replica0", "dispatch");
  const std::string base = plain.to_chrome_json(7);
  EXPECT_NE(base.find("\"pid\":7"), std::string::npos);
  EXPECT_EQ(base.find("\"pid\":3"), std::string::npos);

  Trace pinned;
  pinned.enable(true);
  pinned.record(10, "queue", "enqueue id=0");
  pinned.record_pid(20, "replica3", "dispatch", 3);
  const std::string json = pinned.to_chrome_json(7);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);  // default lane
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);  // pinned lane

  // End to end: a churny fleet run emits spawn/retire markers and pins
  // replica lanes to instance ids.
  const int n = 96;
  const double replica_rps = kDefaultFreqHz / 30000.0;
  const double peak = 0.85 * 4 * replica_rps;
  const ArrivalTrace trace = diurnal_trace(n, peak / 6.0, peak, 12e-3, 1);
  ServePolicy policy;
  policy.queue_capacity = 64;
  FleetSpec scaled = tiny_fleet_spec(n, 1);
  scaled.classes[0].passes.assign(n, PassSpec{0, 30000, 0});
  scaled.classes[0].max_replicas = 6;
  scaled.autoscaler.enabled = true;
  scaled.autoscaler.interval_cycles = 150000;
  scaled.autoscaler.cold_start_cycles = 300000;
  scaled.autoscaler.cooldown_cycles = 150000;
  scaled.autoscaler.up_queue_per_replica = 3.0;
  Trace events;
  events.enable(true);
  const FleetReport rep = serve_fleet(scaled, trace, policy, &events);
  ASSERT_FALSE(rep.scale_events.empty());
  bool saw_spawn = false;
  for (const TraceEvent& e : events.events()) {
    if (e.message.rfind("spawn", 0) == 0) saw_spawn = true;
    if (e.component.rfind("replica", 0) == 0 && e.pid >= 0) {
      EXPECT_EQ("replica" + std::to_string(e.pid), e.component);
    }
  }
  EXPECT_TRUE(saw_spawn);
}

// ---- degenerate equivalence and determinism (session end to end) -----------

VitConfig fleet_test_config() { return vit_test_tiny(); }

TEST(FleetSession, DegenerateFleetMatchesServeClusterRecordForRecord) {
  // Autoscaler off, one tenant, one class, fixed replicas: serve_fleet is
  // serve_cluster, record for record and byte for byte.
  Session session;
  const ModelId id =
      session.deploy(random_weights(fleet_test_config(), 43), "tiny");
  const ArrivalTrace trace = poisson_trace(8, 8000.0, 9);
  const ServePolicy policy;

  Session::ClusterSpec cspec;
  cspec.cards = 2;
  cspec.replicas = 2;
  cspec.strategy = PartitionStrategy::kTensor;
  const ClusterServeResult want =
      session.serve_cluster(id, cspec, trace, policy);

  Session::FleetConfig fspec;
  fspec.classes = {{2, PartitionStrategy::kTensor, 2, 2}};
  const Session::FleetServeResult got =
      session.serve_fleet(id, fspec, trace, policy);

  ASSERT_EQ(got.report.serve.records.size(), want.report.records.size());
  for (std::size_t i = 0; i < want.report.records.size(); ++i) {
    const LatencyRecord& a = want.report.records[i];
    const LatencyRecord& b = got.report.serve.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_cycle, b.arrival_cycle);
    EXPECT_EQ(a.dispatch_cycle, b.dispatch_cycle);
    EXPECT_EQ(a.complete_cycle, b.complete_cycle);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.slo_met, b.slo_met);
  }
  EXPECT_EQ(got.report.serve.to_json(), want.report.to_json());
  // The fleet ledger reduces to "R replicas for the whole makespan".
  EXPECT_EQ(got.report.replica_cycles,
            2u * got.report.serve.makespan_cycles);
  EXPECT_TRUE(got.report.scale_events.empty());
  // Functional outputs are the same forwards, bit for bit.
  ASSERT_EQ(got.features.size(), want.features.size());
  for (std::size_t i = 0; i < want.features.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(got.features[i].data(), want.features[i].data(),
                             want.features[i].size() * sizeof(float)));
  }
  // The serve landed in the command log.
  ASSERT_FALSE(session.log().empty());
  EXPECT_NE(session.log().back().detail.find("serve_fleet"),
            std::string::npos);
}

TEST(FleetSession, ReportBitIdenticalAcrossThreadPoolSizesAndReruns) {
  // The full fleet feature set at once — two classes, two tenants with
  // tiers and quotas, diurnal arrivals, autoscaler on — must produce a
  // byte-identical FleetReport (scale decisions, admission order, tenant
  // breakdowns) and Chrome trace for any worker count, twice over.
  Session session;
  const ModelId id =
      session.deploy(random_weights(fleet_test_config(), 41), "tiny");
  Session::FleetConfig fspec;
  fspec.classes = {{1, PartitionStrategy::kPipeline, 1, 4},
                   {2, PartitionStrategy::kTensor, 1, 2}};
  fspec.tenants.tenants = {{"gold", 0, 2.0, 4.0}, {"bronze", 1, 1.0, 0.0}};
  fspec.autoscaler.enabled = true;
  fspec.autoscaler.interval_cycles = 150000;
  fspec.autoscaler.cold_start_cycles = 300000;
  fspec.autoscaler.cooldown_cycles = 150000;
  ArrivalTrace trace = diurnal_trace(24, 2000.0, 16000.0, 12e-3, 7);
  assign_tenants(&trace, fspec.tenants);
  ServePolicy policy;
  policy.queue_capacity = 16;

  Trace serial_events;
  serial_events.enable(true);
  const Session::FleetServeResult serial =
      session.serve_fleet(id, fspec, trace, policy, nullptr, &serial_events);
  const std::string want_json = serial.report.to_json();
  const std::string want_trace = serial_events.to_chrome_json();
  EXPECT_EQ(serial.report.serve.records.size() +
                serial.report.serve.rejected_ids.size(),
            24u);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    Trace events;
    events.enable(true);
    const Session::FleetServeResult got =
        session.serve_fleet(id, fspec, trace, policy, &pool, &events);
    EXPECT_EQ(got.report.to_json(), want_json)
        << threads << " workers must not change the fleet report";
    EXPECT_EQ(events.to_chrome_json(), want_trace)
        << threads << " workers must not change the event trace";
    ASSERT_EQ(got.features.size(), serial.features.size());
    for (std::size_t i = 0; i < serial.features.size(); ++i) {
      EXPECT_EQ(0,
                std::memcmp(got.features[i].data(), serial.features[i].data(),
                            serial.features[i].size() * sizeof(float)));
    }
  }
  // Rerun with the same seed: bit-identical again.
  const Session::FleetServeResult again =
      session.serve_fleet(id, fspec, trace, policy);
  EXPECT_EQ(again.report.to_json(), want_json);
}

// ---- absolute byte pins ----------------------------------------------------
//
// The tests above compare one loop configuration against another, which
// cannot fail once both sides run the same code. These pin each
// configuration's report JSON and event trace to fixed FNV-1a digests
// instead. Each run pins three strings: the report JSON, the Chrome trace
// and the text trace (Trace::to_string), which carries no pids and so pins
// the event stream apart from its Chrome lane assignment. Unit and replica
// events carry pid = instance id in every configuration.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct BytePins {
  std::uint64_t report = 0;
  std::uint64_t chrome = 0;
  std::uint64_t text = 0;
};

void expect_pins(const std::string& report_json, const Trace& events,
                 const BytePins& want) {
  ASSERT_FALSE(events.events().empty());
  EXPECT_EQ(fnv1a(report_json), want.report)
      << "report 0x" << std::hex << fnv1a(report_json);
  EXPECT_EQ(fnv1a(events.to_chrome_json()), want.chrome)
      << "chrome 0x" << std::hex << fnv1a(events.to_chrome_json());
  EXPECT_EQ(fnv1a(events.to_string()), want.text)
      << "text 0x" << std::hex << fnv1a(events.to_string());
}

/// `executors` identical executors; every request costs the same pass.
BackendSpec uniform_backend(int executors, int requests,
                            std::uint64_t cycles) {
  BackendSpec b;
  b.executors = executors;
  b.passes.assign(static_cast<std::size_t>(requests),
                  PassSpec{cycles / 10, cycles, cycles / 10});
  return b;
}

SystemConfig two_unit_system() {
  SystemConfig cfg;
  cfg.num_units = 2;
  return cfg;
}

TEST(ServeBytePins, OnlinePoissonRejectNewest) {
  const VitModel model{random_weights(vit_test_tiny(), 42)};
  const AcceleratorSystem sys(two_unit_system());
  const ArrivalTrace trace =
      poisson_trace(32, 40000.0, 11, sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 4;
  policy.max_batch = 3;
  policy.slo_ms = 2.0;
  Trace events;
  events.enable(true);
  const OnlineServeResult r =
      serve_online(model, sys, trace, policy, nullptr, &events);
  EXPECT_GT(r.report.counters.get("serve.rejected"), 0u);
  expect_pins(r.report.to_json(), events, 
              {0xdf4e0ab763ca1dbeULL, 0xc123fc4179a37ff6ULL,
               0xf15bcf455be827ccULL});
}

TEST(ServeBytePins, OnlineClosedLoopShedOldest) {
  const VitModel model{random_weights(vit_test_tiny(), 42)};
  const AcceleratorSystem sys(two_unit_system());
  const ArrivalTrace trace =
      closed_loop_trace(8, 24, 0.0, 9, sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 2;
  policy.max_batch = 2;
  policy.drop_policy = DropPolicy::kShedOldest;
  Trace events;
  events.enable(true);
  const OnlineServeResult r =
      serve_online(model, sys, trace, policy, nullptr, &events);
  EXPECT_GT(r.report.counters.get("serve.shed"), 0u);
  expect_pins(r.report.to_json(), events, 
              {0xe84cf7a68af250f5ULL, 0x89d8156585d065d9ULL,
               0x4a42285569ac584aULL});
}

TEST(ServeBytePins, TenantTaggedServeEvents) {
  TenantSet set;
  set.tenants = {{"a", 0, 2.0, 0.0}, {"b", 0, 1.0, 0.0}};
  ArrivalTrace trace = poisson_trace(30, 30000.0, 13);
  assign_tenants(&trace, set);
  ServePolicy policy;
  policy.queue_capacity = 6;
  Trace events;
  events.enable(true);
  const ServeReport rep =
      serve_events(uniform_backend(2, 30, 20000), trace, policy, &events);
  ASSERT_EQ(rep.tenants.size(), 2u);
  EXPECT_EQ(rep.tenants[1].name, "tenant1");
  expect_pins(rep.to_json(), events, 
              {0xe82f66e4c0adbf68ULL, 0xdeb2c0a0d1159f60ULL,
               0xe1956cfe1fc4b549ULL});
}

TEST(ServeBytePins, ServeFailoverOneExecutorDies) {
  // The ServeFailover backend: executor 0 dies mid-batch at a cycle taken
  // from the healthy schedule.
  const int requests = 24;
  BackendSpec backend = uniform_backend(2, requests, 30000);
  const ArrivalTrace trace = poisson_trace(requests, 8000.0, 5);
  ServePolicy policy;
  policy.queue_capacity = 64;
  policy.slo_ms = 50.0;
  const ServeReport healthy = serve_events(backend, trace, policy);
  std::uint64_t fail_cycle = 0;
  for (const LatencyRecord& rec : healthy.records) {
    if (rec.unit == 0 && rec.complete_cycle > rec.dispatch_cycle + 1) {
      fail_cycle = (rec.dispatch_cycle + rec.complete_cycle) / 2;
    }
  }
  backend.failures = {{0, fail_cycle}};
  Trace events;
  events.enable(true);
  const ServeReport rep = serve_events(backend, trace, policy, &events);
  EXPECT_GT(rep.counters.get("serve.retried"), 0u);
  expect_pins(rep.to_json(), events, 
              {0x70f5eca4aa591aaeULL, 0xbcb1fd4c6db72b1fULL,
               0xfd6c8b2e82967be4ULL});
}

TEST(ServeBytePins, ServeFailoverAllExecutorsDie) {
  BackendSpec backend = uniform_backend(1, 8, 30000);
  backend.failures = {{0, 35000}};
  ServePolicy policy;
  policy.max_retries = 2;
  const ArrivalTrace trace = poisson_trace(8, 50000.0, 5);
  Trace events;
  events.enable(true);
  const ServeReport rep = serve_events(backend, trace, policy, &events);
  EXPECT_GT(rep.counters.get("serve.stranded"), 0u);
  expect_pins(rep.to_json(), events, 
              {0x2a0994953fbbe7d4ULL, 0x64a8d1544279c5b4ULL,
               0xe21b6bf6527dac54ULL});
}

TEST(ServeBytePins, ClusterTensorSplitWithCardFailure) {
  const VitModel model(random_weights(vit_test_tiny(), 41));
  const ClusterExecutor exec(model.weights(), ClusterTopology::ring(2),
                             PartitionStrategy::kTensor);
  const ArrivalTrace trace = poisson_trace(10, 6000.0, 7);
  ServePolicy policy;
  policy.queue_capacity = 32;
  const ClusterServeResult healthy = serve_cluster(exec, 2, trace, policy);
  const std::vector<CardFailure> failures = {
      {1, healthy.report.makespan_cycles / 4}};
  Trace events;
  events.enable(true);
  const ClusterServeResult r =
      serve_cluster(exec, 2, trace, policy, nullptr, &events, failures);
  EXPECT_EQ(r.report.counters.get("serve.executor_failures"), 1u);
  expect_pins(r.report.to_json(), events, 
              {0x7c914c0593a319e4ULL, 0x63da65b03fe0ece0ULL,
               0x3840772f17005282ULL});
}

TEST(ServeBytePins, DegenerateFleet) {
  const ArrivalTrace trace = poisson_trace(24, 1.5e6, 17);
  ServePolicy policy;
  policy.queue_capacity = 6;
  Trace events;
  events.enable(true);
  const FleetReport rep =
      serve_fleet(tiny_fleet_spec(24, 2), trace, policy, &events);
  EXPECT_FALSE(rep.serve.rejected_ids.empty());
  expect_pins(rep.to_json(), events, 
              {0x581ecb1b15fc6f16ULL, 0x2f6149fdf59cd98fULL,
               0x49ae2ad001c8cdc9ULL});
}

TEST(ServeBytePins, AutoscaledTwoClassTwoTenantFleet) {
  // The configuration of ReportBitIdenticalAcrossThreadPoolSizesAndReruns.
  Session session;
  const ModelId id =
      session.deploy(random_weights(fleet_test_config(), 41), "tiny");
  Session::FleetConfig fspec;
  fspec.classes = {{1, PartitionStrategy::kPipeline, 1, 4},
                   {2, PartitionStrategy::kTensor, 1, 2}};
  fspec.tenants.tenants = {{"gold", 0, 2.0, 4.0}, {"bronze", 1, 1.0, 0.0}};
  fspec.autoscaler.enabled = true;
  fspec.autoscaler.interval_cycles = 150000;
  fspec.autoscaler.cold_start_cycles = 300000;
  fspec.autoscaler.cooldown_cycles = 150000;
  ArrivalTrace trace = diurnal_trace(24, 2000.0, 16000.0, 12e-3, 7);
  assign_tenants(&trace, fspec.tenants);
  ServePolicy policy;
  policy.queue_capacity = 16;
  Trace events;
  events.enable(true);
  const Session::FleetServeResult r =
      session.serve_fleet(id, fspec, trace, policy, nullptr, &events);
  EXPECT_FALSE(r.report.scale_events.empty());
  expect_pins(r.report.to_json(), events, 
              {0x6b689ec01c56436eULL, 0x2a1307ba552e7088ULL,
               0x43e3ee909a56b8ecULL});
}

// ---- input checks ----------------------------------------------------------

TEST(ServeInputs, ArrivalIdsMustBeDenseAndUnique) {
  // The loop indexes per-request tables by arrival id and hands closed-loop
  // reinjections the ids from arrivals.size() on, so hand-built traces with
  // an out-of-range, duplicate or reinjection-colliding id must throw.
  ArrivalTrace out_of_range = poisson_trace(4, 1000.0, 1);
  out_of_range.arrivals[3].id = 9;
  ArrivalTrace duplicate = poisson_trace(4, 1000.0, 1);
  duplicate.arrivals[3].id = 0;
  ArrivalTrace collides = closed_loop_trace(2, 6, 0.1, 1);
  collides.arrivals[1].id = 2;  // the first reinjected id
  for (const ArrivalTrace* t : {&out_of_range, &duplicate, &collides}) {
    EXPECT_THROW(t->validate(), Error);
    EXPECT_THROW(serve_events(uniform_backend(1, 16, 1000), *t, ServePolicy{}),
                 Error);
    EXPECT_THROW(serve_fleet(tiny_fleet_spec(16, 1), *t, ServePolicy{}),
                 Error);
  }
}

}  // namespace
}  // namespace bfpsim
