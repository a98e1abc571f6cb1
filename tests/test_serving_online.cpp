// Tests for the online request-serving subsystem: the virtual-time event
// loop, SLO-aware continuous batching, admission-queue backpressure, and
// latency-percentile telemetry — including the determinism contract: same
// seed + policy => bit-identical per-request latencies, percentile report,
// and counter totals for any worker count.
#include "serving/event_loop.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "runtime/session.hpp"
#include "serving/metrics.hpp"
#include "serving/queue.hpp"
#include "serving/workload.hpp"

namespace bfpsim {
namespace {

// Modelled per-request cycles and the resulting system capacity, probed
// once so overload factors track any future numerics change.
struct Probe {
  std::uint64_t cycles = 0;
  double capacity_rps = 0.0;
};

Probe probe_capacity(const VitModel& model, const AcceleratorSystem& sys,
                     std::uint64_t seed) {
  ForwardStats stats;
  SystemConfig one = sys.config();
  one.num_units = 1;
  const AcceleratorSystem unit(one);
  (void)model.forward_mixed(random_embeddings(model.config(), seed), unit,
                            &stats);
  Probe p;
  p.cycles = stats.total_cycles();
  p.capacity_rps = static_cast<double>(sys.config().num_units) *
                   sys.config().pu.freq_hz /
                   static_cast<double>(p.cycles);
  return p;
}

TEST(ServingMetrics, NearestRankPercentiles) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const PercentileSummary s = summarize_latencies(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 50u);
  EXPECT_EQ(s.p95, 95u);
  EXPECT_EQ(s.p99, 99u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
}

TEST(ServingMetrics, PercentilesOfSmallPopulations) {
  const PercentileSummary empty = summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0u);
  const PercentileSummary one = summarize_latencies({42});
  EXPECT_EQ(one.p50, 42u);
  EXPECT_EQ(one.p99, 42u);
  EXPECT_EQ(one.max, 42u);
  // n=2: nearest-rank gives the lower sample at p50 (ceil(0.5*2)=1) and
  // the upper one from p95 on (ceil(0.95*2)=2).
  const PercentileSummary two = summarize_latencies({10, 30});
  EXPECT_EQ(two.count, 2u);
  EXPECT_EQ(two.p50, 10u);
  EXPECT_EQ(two.p95, 30u);
  EXPECT_EQ(two.p99, 30u);
  EXPECT_EQ(two.max, 30u);
}

TEST(ServingWorkload, PoissonTraceIsSeededAndSorted) {
  const ArrivalTrace a = poisson_trace(50, 1000.0, 7);
  const ArrivalTrace b = poisson_trace(50, 1000.0, 7);
  const ArrivalTrace c = poisson_trace(50, 1000.0, 8);
  ASSERT_EQ(a.arrivals.size(), 50u);
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].cycle, b.arrivals[i].cycle);
    EXPECT_EQ(a.arrivals[i].id, static_cast<int>(i));
    if (i > 0) EXPECT_GE(a.arrivals[i].cycle, a.arrivals[i - 1].cycle);
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    differs = differs || a.arrivals[i].cycle != c.arrivals[i].cycle;
  }
  EXPECT_TRUE(differs) << "different seeds must give different traces";
  EXPECT_DOUBLE_EQ(a.offered_rps, 1000.0);
}

TEST(ServingWorkload, ClosedLoopTraceShape) {
  const ArrivalTrace t = closed_loop_trace(4, 20, 0.5, 3);
  EXPECT_TRUE(t.closed_loop);
  EXPECT_EQ(t.arrivals.size(), 4u);
  EXPECT_EQ(t.total_requests, 20);
  EXPECT_EQ(t.think_cycles,
            static_cast<std::uint64_t>(0.5e-3 * kDefaultFreqHz));
  EXPECT_THROW(closed_loop_trace(8, 4, 0.5, 3), Error);
}

TEST(ServingQueue, RejectNewestAndShedOldest) {
  AdmissionQueue reject(2, DropPolicy::kRejectNewest);
  EXPECT_TRUE(reject.push({0, 0, 100}).admitted);
  EXPECT_TRUE(reject.push({1, 1, 101}).admitted);
  const PushOutcome rejected = reject.push({2, 2, 102});
  EXPECT_FALSE(rejected.admitted);
  EXPECT_FALSE(rejected.had_victim);
  EXPECT_EQ(reject.rejected(), 1u);
  EXPECT_EQ(reject.size(), 2u);
  EXPECT_EQ(reject.front().id, 0);

  AdmissionQueue shed(2, DropPolicy::kShedOldest);
  EXPECT_TRUE(shed.push({0, 0, 100}).admitted);
  EXPECT_TRUE(shed.push({1, 1, 101}).admitted);
  const PushOutcome third = shed.push({2, 2, 102});
  EXPECT_TRUE(third.admitted);
  EXPECT_TRUE(third.had_victim);
  EXPECT_EQ(third.victim.id, 0);
  EXPECT_EQ(shed.shed(), 1u);
  EXPECT_EQ(shed.front().id, 1);
  // Earliest deadline pops first regardless of push order.
  const PushOutcome urgent = shed.push({9, 3, 50});
  EXPECT_TRUE(urgent.admitted);
  EXPECT_EQ(urgent.victim.id, 1);
  EXPECT_EQ(shed.pop().id, 9);
}

// The acceptance-criteria test: same seed + policy produces bit-identical
// per-request latencies, percentile report, and counter totals for 1, 2,
// and 8 worker threads.
TEST(ServingOnline, BitIdenticalForAnyWorkerCount) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;
  const Probe probe = probe_capacity(model, sys, 1);

  const ArrivalTrace trace =
      poisson_trace(24, 0.9 * probe.capacity_rps, 11,
                    sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 8;
  policy.max_batch = 3;
  policy.slo_ms = 4.0;

  OnlineServeResult base;
  bool have_base = false;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    OnlineServeResult r = serve_online(model, sys, trace, policy, &pool);
    if (!have_base) {
      base = std::move(r);
      have_base = true;
      EXPECT_FALSE(base.report.records.empty());
      continue;
    }
    // Per-request latency records, field by field.
    ASSERT_EQ(r.report.records.size(), base.report.records.size());
    for (std::size_t i = 0; i < r.report.records.size(); ++i) {
      const LatencyRecord& a = r.report.records[i];
      const LatencyRecord& b = base.report.records[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.arrival_cycle, b.arrival_cycle);
      EXPECT_EQ(a.dispatch_cycle, b.dispatch_cycle);
      EXPECT_EQ(a.complete_cycle, b.complete_cycle);
      EXPECT_EQ(a.unit, b.unit);
      EXPECT_EQ(a.batch_size, b.batch_size);
      EXPECT_EQ(a.slo_met, b.slo_met);
    }
    // The whole percentile report (stable JSON rendering).
    EXPECT_EQ(r.report.to_json(), base.report.to_json());
    // Counter totals.
    EXPECT_EQ(r.report.counters.snapshot(), base.report.counters.snapshot());
    // Functional outputs, every bit.
    ASSERT_EQ(r.features.size(), base.features.size());
    for (std::size_t i = 0; i < r.features.size(); ++i) {
      ASSERT_EQ(r.features[i].size(), base.features[i].size());
      for (std::size_t j = 0; j < r.features[i].size(); ++j) {
        ASSERT_EQ(r.features[i][j], base.features[i][j]) << i << "," << j;
      }
    }
    EXPECT_EQ(r.compute_cycles, base.compute_cycles);
  }
}

// The backpressure acceptance test: bounded queue depth and counted
// rejections under overload.
TEST(ServingOnline, BackpressureBoundsQueueAndCountsRejections) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;
  const Probe probe = probe_capacity(model, sys, 1);

  const int n = 40;
  const ArrivalTrace trace =
      poisson_trace(n, 20.0 * probe.capacity_rps, 5,
                    sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 4;
  policy.max_batch = 2;
  policy.slo_ms = 2.0;

  const OnlineServeResult r = serve_online(model, sys, trace, policy);
  const ServeReport& rep = r.report;

  EXPECT_LE(rep.max_queue_depth, policy.queue_capacity);
  for (const QueueSample& s : rep.queue_depth) {
    EXPECT_LE(s.depth, policy.queue_capacity);
  }
  EXPECT_GT(rep.rejected_ids.size(), 0u) << "20x overload must shed load";
  EXPECT_EQ(rep.counters.get("serve.requests"), static_cast<std::uint64_t>(n));
  EXPECT_EQ(rep.counters.get("serve.admitted") +
                rep.counters.get("serve.rejected"),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(rep.records.size() + rep.rejected_ids.size(),
            static_cast<std::size_t>(n));
  EXPECT_EQ(rep.counters.get("serve.rejected"), rep.rejected_ids.size());
  // Every request accounted for exactly once.
  std::set<int> seen;
  for (const LatencyRecord& rec : rep.records) seen.insert(rec.id);
  for (const int id : rep.rejected_ids) seen.insert(id);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

TEST(ServingOnline, ShedOldestPolicyShedsAdmittedWork) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;
  const Probe probe = probe_capacity(model, sys, 1);

  const int n = 40;
  const ArrivalTrace trace =
      poisson_trace(n, 20.0 * probe.capacity_rps, 5,
                    sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 4;
  policy.max_batch = 2;
  policy.slo_ms = 2.0;
  policy.drop_policy = DropPolicy::kShedOldest;

  const OnlineServeResult r = serve_online(model, sys, trace, policy);
  const ServeReport& rep = r.report;
  EXPECT_GT(rep.counters.get("serve.shed"), 0u);
  EXPECT_EQ(rep.counters.get("serve.rejected"), 0u)
      << "shed-oldest never rejects the newcomer";
  EXPECT_EQ(rep.records.size() + rep.rejected_ids.size(),
            static_cast<std::size_t>(n));
  EXPECT_LE(rep.max_queue_depth, policy.queue_capacity);
}

TEST(ServingOnline, ClosedLoopDepthBoundedByClients) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;

  const int clients = 3;
  const ArrivalTrace trace =
      closed_loop_trace(clients, 12, 0.2, 9, sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 16;
  policy.max_batch = 2;

  const OnlineServeResult r = serve_online(model, sys, trace, policy);
  const ServeReport& rep = r.report;
  EXPECT_EQ(rep.records.size(), 12u) << "closed loop completes every request";
  EXPECT_TRUE(rep.rejected_ids.empty());
  EXPECT_LE(rep.max_queue_depth, static_cast<std::size_t>(clients));
}

TEST(ServingOnline, RecordsRespectPolicyAndSloAccounting) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;
  const Probe probe = probe_capacity(model, sys, 1);

  const ArrivalTrace trace =
      poisson_trace(20, 1.2 * probe.capacity_rps, 21,
                    sys.config().pu.freq_hz);
  ServePolicy policy;
  policy.queue_capacity = 16;
  policy.max_batch = 4;
  policy.slo_ms = 3.0;

  const OnlineServeResult r = serve_online(model, sys, trace, policy);
  const ServeReport& rep = r.report;
  std::size_t violations = 0;
  std::uint64_t dispatched = 0;
  for (const LatencyRecord& rec : rep.records) {
    EXPECT_GE(rec.batch_size, 1);
    EXPECT_LE(rec.batch_size, policy.max_batch);
    EXPECT_GE(rec.dispatch_cycle, rec.arrival_cycle);
    EXPECT_GT(rec.complete_cycle, rec.dispatch_cycle);
    EXPECT_GE(rec.unit, 0);
    EXPECT_LT(rec.unit, sys.config().num_units);
    EXPECT_EQ(rec.slo_met,
              rec.total_cycles() <= rep.slo_cycles);
    if (!rec.slo_met) ++violations;
    ++dispatched;
  }
  EXPECT_EQ(rep.slo_violations, violations);
  EXPECT_EQ(rep.counters.get("serve.dispatched"), dispatched);
  // Percentiles are ordered.
  EXPECT_LE(rep.latency.p50, rep.latency.p95);
  EXPECT_LE(rep.latency.p95, rep.latency.p99);
  EXPECT_LE(rep.latency.p99, rep.latency.max);
  // Utilization is a fraction.
  EXPECT_GE(rep.utilization, 0.0);
  EXPECT_LE(rep.utilization, 1.0);
}

TEST(ServingOnline, EventTraceFeedsChromeExport) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;

  const ArrivalTrace trace =
      poisson_trace(6, 3000.0, 2, sys.config().pu.freq_hz);
  Trace t;
  t.enable(true);
  const OnlineServeResult r =
      serve_online(model, sys, trace, ServePolicy{}, nullptr, &t);
  EXPECT_FALSE(t.events().empty());
  EXPECT_FALSE(t.for_component("queue").empty());
  const std::string json = t.to_chrome_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(r.report.records.size(), 6u);
}

TEST(ServingOnline, SessionServeDelegatesAndLogs) {
  Session session;
  const VitConfig cfg = vit_test_tiny();
  const ModelId id = session.deploy(random_weights(cfg, 42), "served");
  session.clear_log();

  const ArrivalTrace trace =
      poisson_trace(5, 3000.0, 4, session.system().config().pu.freq_hz);
  const OnlineServeResult r = session.serve(id, trace, ServePolicy{});
  EXPECT_EQ(r.report.records.size(), 5u);
  ASSERT_EQ(session.log().size(), 1u);
  EXPECT_EQ(session.log().back().kind, CommandRecord::Kind::kCompute);
  EXPECT_NE(session.log().back().detail.find("serve served"),
            std::string::npos);
  EXPECT_EQ(session.log().back().cycles, r.report.makespan_cycles);
}

}  // namespace
}  // namespace bfpsim
