// Tests for the online request-serving subsystem: the virtual-time event
// loop, SLO-aware continuous batching, admission-queue backpressure, and
// latency-percentile telemetry — including the determinism contract: same
// seed + policy => bit-identical per-request latencies, percentile report,
// and counter totals for any worker count.
#include "serving/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
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
  std::vector<std::uint64_t> one_sample = {42};
  const PercentileSummary one = summarize_latencies(one_sample);
  EXPECT_EQ(one.p50, 42u);
  EXPECT_EQ(one.p99, 42u);
  EXPECT_EQ(one.max, 42u);
  // n=2: nearest-rank gives the lower sample at p50 (ceil(0.5*2)=1) and
  // the upper one from p95 on (ceil(0.95*2)=2).
  std::vector<std::uint64_t> two_samples = {10, 30};
  const PercentileSummary two = summarize_latencies(two_samples);
  EXPECT_EQ(two.count, 2u);
  EXPECT_EQ(two.p50, 10u);
  EXPECT_EQ(two.p95, 30u);
  EXPECT_EQ(two.p99, 30u);
  EXPECT_EQ(two.max, 30u);
}

// ---- differential checks of the rank selector ------------------------------

/// The sorting definition summarize_latencies must reproduce: sort, then
/// read element ceil(p/100 * N), 1-indexed and clamped to [1, N].
PercentileSummary sorted_oracle(std::vector<std::uint64_t> v) {
  PercentileSummary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at_rank = [&v](double pct) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  };
  s.p50 = at_rank(50.0);
  s.p95 = at_rank(95.0);
  s.p99 = at_rank(99.0);
  s.max = v.back();
  std::uint64_t sum = 0;
  for (const std::uint64_t c : v) sum += c;
  s.mean = static_cast<double>(sum) / static_cast<double>(v.size());
  return s;
}

void expect_same_summary(const PercentileSummary& got,
                         const PercentileSummary& want,
                         const std::string& what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.p50, want.p50) << what;
  EXPECT_EQ(got.p95, want.p95) << what;
  EXPECT_EQ(got.p99, want.p99) << what;
  EXPECT_EQ(got.max, want.max) << what;
  EXPECT_EQ(got.mean, want.mean) << what;  // same integer sum: exact
}

enum class Family { kRandom, kFewValues, kAllEqual, kAscending, kDescending };

std::vector<std::uint64_t> population(Family f, std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (f) {
      case Family::kRandom: v[i] = rng.bits64() % 1000000000U; break;
      case Family::kFewValues: v[i] = rng.bits64() % 4U; break;
      case Family::kAllEqual: v[i] = 7; break;
      case Family::kAscending: v[i] = i; break;
      case Family::kDescending: v[i] = n - i; break;
    }
  }
  return v;
}

TEST(ServingMetrics, SelectedRanksMatchASortedOracle) {
  // Every size up to 128 covers the nearest-rank edges (n = 1, 2, 19, 20,
  // 21, 99, 100, 101), then the 1000s and seeded sizes up to 2000.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 128; ++n) sizes.push_back(n);
  for (const std::size_t n : {199, 200, 201, 999, 1000, 1001, 1999, 2000}) {
    sizes.push_back(n);
  }
  Rng rng(2024);
  for (int i = 0; i < 40; ++i) sizes.push_back(rng.bits64() % 2001U);
  for (const Family f : {Family::kRandom, Family::kFewValues,
                         Family::kAllEqual, Family::kAscending,
                         Family::kDescending}) {
    for (const std::size_t n : sizes) {
      const std::vector<std::uint64_t> input = population(f, n, rng);
      std::vector<std::uint64_t> buf = input;
      const std::string what = "family " +
                               std::to_string(static_cast<int>(f)) +
                               " n=" + std::to_string(n);
      expect_same_summary(summarize_latencies(buf), sorted_oracle(input),
                          what);
      // Selection reorders the caller's buffer but keeps its multiset.
      std::vector<std::uint64_t> a = input;
      std::sort(a.begin(), a.end());
      std::sort(buf.begin(), buf.end());
      EXPECT_EQ(buf, a) << what;
    }
  }
}

TEST(ServingMetrics, TenantBreakdownsMatchAPerTenantOracle) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const int num_tenants = static_cast<int>(rng.bits64() % 6U);  // 0 -> 1
    const int rows = std::max(num_tenants, 1);
    // Tags come from a subset of the tenants, so some rows stay empty.
    const int tagged = 1 + static_cast<int>(rng.bits64() % static_cast<
                                                std::uint64_t>(rows));
    const std::size_t known = rng.bits64() % 400U;
    std::vector<int> tenant_of_id(known);
    for (int& t : tenant_of_id) {
      t = static_cast<int>(rng.bits64() % static_cast<std::uint64_t>(tagged));
    }
    // Ids past tenant_of_id (and negative rejected ids) are tenant 0's.
    auto oracle_tenant = [&](int id) {
      return id >= 0 && static_cast<std::size_t>(id) < known
                 ? tenant_of_id[static_cast<std::size_t>(id)]
                 : 0;
    };
    ServeReport rep;
    const int ids = static_cast<int>(known) + 40;
    for (int id = 0; id < ids; ++id) {
      switch (rng.bits64() % 3U) {
        case 0: {
          LatencyRecord r;
          r.id = id;
          r.arrival_cycle = rng.bits64() % 100000U;
          r.dispatch_cycle = r.arrival_cycle + rng.bits64() % 50U;
          r.complete_cycle = r.dispatch_cycle + rng.bits64() % 5000U;
          r.slo_met = rng.bits64() % 4U != 0;
          rep.records.push_back(r);
          break;
        }
        case 1: rep.rejected_ids.push_back(id); break;
        default: break;
      }
    }
    rep.rejected_ids.push_back(-3);
    rep.rejected_ids.push_back(ids + 5);

    const std::vector<TenantBreakdown> got =
        tenant_breakdowns(rep, tenant_of_id, num_tenants);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(rows));
    for (int k = 0; k < rows; ++k) {
      const TenantBreakdown& row = got[static_cast<std::size_t>(k)];
      std::vector<std::uint64_t> totals;
      std::size_t violations = 0, rejected = 0;
      for (const LatencyRecord& r : rep.records) {
        if (oracle_tenant(r.id) != k) continue;
        totals.push_back(r.total_cycles());
        if (!r.slo_met) ++violations;
      }
      for (const int id : rep.rejected_ids) {
        if (oracle_tenant(id) == k) ++rejected;
      }
      const std::string what =
          "trial " + std::to_string(trial) + " tenant " + std::to_string(k);
      EXPECT_EQ(row.tenant, k) << what;
      EXPECT_EQ(row.name, "tenant" + std::to_string(k)) << what;
      EXPECT_EQ(row.completed, totals.size()) << what;
      EXPECT_EQ(row.slo_violations, violations) << what;
      EXPECT_EQ(row.rejected, rejected) << what;
      expect_same_summary(row.latency, sorted_oracle(totals), what);
    }
  }
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
