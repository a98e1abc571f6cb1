// Tests for the multi-card cluster subsystem: topology/link validation and
// cost model, the partitioner's divisibility
// rules, and the determinism contract extended across cards — a sharded
// forward (tensor or pipeline) must reproduce the single-card
// forward_mixed bit-for-bit, for any ThreadPool size, and a 1-card
// "cluster" must be indistinguishable from the standalone single-card
// serving path.
#include "cluster/cluster_executor.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "cluster/partitioner.hpp"
#include "cluster/topology.hpp"
#include "common/error.hpp"
#include "runtime/session.hpp"
#include "serving/workload.hpp"

namespace bfpsim {
namespace {

VitConfig tp2_config() { return vit_test_tiny(); }  // d=64 h=2 depth=2

// ---- topology -------------------------------------------------------------

TEST(ClusterTopology, LinkValidationRejectsDegenerateConfigs) {
  LinkConfig ok;
  EXPECT_NO_THROW(ok.validate());

  LinkConfig zero_bw;
  zero_bw.bytes_per_cycle = 0;
  EXPECT_THROW(zero_bw.validate(), Error);

  LinkConfig zero_burst;
  zero_burst.burst_bytes = 0;
  EXPECT_THROW(zero_burst.validate(), Error);

  LinkConfig neg_overhead;
  neg_overhead.burst_overhead_cycles = -1;
  EXPECT_THROW(neg_overhead.validate(), Error);

  EXPECT_THROW(ClusterTopology::ring(2, zero_bw), Error);
}

TEST(ClusterTopology, LinkTransferClosedForm) {
  LinkConfig link;
  link.bytes_per_cycle = 16;
  link.latency_cycles = 500;
  link.burst_bytes = 4096;
  link.burst_overhead_cycles = 32;
  EXPECT_EQ(link_transfer_cycles(link, 0), 0u);
  // 10000 bytes: ceil(10000/16)=625 data, ceil(10000/4096)=3 bursts.
  EXPECT_EQ(link_transfer_cycles(link, 10000), 625u + 3u * 32u + 500u);
  // One byte still pays a full burst + the flight latency.
  EXPECT_EQ(link_transfer_cycles(link, 1), 1u + 32u + 500u);
}

TEST(ClusterTopology, RingConnectsNeighboursOnly) {
  const ClusterTopology topo = ClusterTopology::ring(4);
  EXPECT_NO_THROW(topo.validate());
  EXPECT_TRUE(topo.connected(0, 1));
  EXPECT_TRUE(topo.connected(1, 0));
  EXPECT_TRUE(topo.connected(3, 0));
  EXPECT_FALSE(topo.connected(0, 2));
  EXPECT_FALSE(topo.connected(0, 0));
  // Store-and-forward: 0 -> 2 pays two hops; a neighbour pays one.
  const std::uint64_t hop = topo.p2p_cycles(0, 1, 4096);
  EXPECT_EQ(topo.p2p_cycles(0, 2, 4096), 2 * hop);
  EXPECT_EQ(topo.p2p_cycles(3, 0, 4096), hop);
  EXPECT_EQ(topo.p2p_cycles(1, 1, 4096), 0u);
}

TEST(ClusterTopology, FullyConnectedIsSingleHop) {
  const ClusterTopology topo = ClusterTopology::fully_connected(4);
  EXPECT_NO_THROW(topo.validate());
  EXPECT_TRUE(topo.connected(0, 2));
  EXPECT_EQ(topo.p2p_cycles(0, 2, 4096), topo.p2p_cycles(0, 1, 4096));
}

TEST(ClusterTopology, SingleCardHasNoTraffic) {
  const ClusterTopology topo = ClusterTopology::ring(1);
  EXPECT_NO_THROW(topo.validate());
  EXPECT_EQ(topo.all_gather_cycles(1 << 20), 0u);
}

TEST(ClusterTopology, RingAllGatherCostMatchesClosedForm) {
  // N-1 steps of one ceil(B/N)-byte shard each over the slowest ring link.
  LinkConfig link;
  link.bytes_per_cycle = 16;
  link.latency_cycles = 500;
  link.burst_bytes = 4096;
  link.burst_overhead_cycles = 32;
  const int n = 4;
  const std::uint64_t bytes = (1u << 20) + 1;  // one byte past divisible
  const ClusterTopology topo = ClusterTopology::ring(n, link);
  EXPECT_EQ(topo.all_gather_cycles(bytes),
            (n - 1) * link_transfer_cycles(link, bytes / n + 1));
}

TEST(ClusterTopology, CardCountBounds) {
  EXPECT_THROW(ClusterTopology::ring(0), Error);
  EXPECT_THROW(ClusterTopology::ring(65), Error);
  EXPECT_NO_THROW(ClusterTopology::ring(64));
}

// ---- partitioner ----------------------------------------------------------

TEST(Partitioner, PipelineSplitsBlocksContiguously) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 7);
  const PartitionPlan plan =
      partition_model(w, PartitionStrategy::kPipeline, 2);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages[0].first_block, 0);
  EXPECT_EQ(plan.stages[1].first_block, 1);
  EXPECT_EQ(plan.stages[0].weights.cfg.depth, 1);
  EXPECT_EQ(plan.stages[0].weights.blocks[0].qkv_w, w.blocks[0].qkv_w);
  EXPECT_EQ(plan.stages[1].weights.blocks[0].qkv_w, w.blocks[1].qkv_w);
  EXPECT_EQ(plan.boundary_bytes,
            static_cast<std::uint64_t>(cfg.tokens()) * cfg.embed_dim *
                sizeof(float));
}

TEST(Partitioner, RejectsIndivisibleModels) {
  const VitWeights w = random_weights(tp2_config(), 7);
  // depth=2 does not split into 3 pipeline stages.
  EXPECT_THROW(partition_model(w, PartitionStrategy::kPipeline, 3),
               ShapeError);
  // heads=2 does not split across 4 tensor shards.
  EXPECT_THROW(partition_model(w, PartitionStrategy::kTensor, 4),
               ShapeError);
  // deit-tiny's 3 heads do not split across 2 shards.
  VitConfig tiny = deit_tiny();
  tiny.depth = 2;
  EXPECT_THROW(partition_model(random_weights(tiny, 7),
                               PartitionStrategy::kTensor, 2),
               ShapeError);
  // head_dim=20: the per-card column width (20) is off the bfp block grid.
  VitConfig off_grid = tp2_config();
  off_grid.embed_dim = 40;
  EXPECT_THROW(partition_model(random_weights(off_grid, 7),
                               PartitionStrategy::kTensor, 2),
               ShapeError);
}

TEST(Partitioner, TensorShardsSliceColumnsByHead) {
  const VitConfig cfg = tp2_config();
  const int d = cfg.embed_dim;
  const int dc = d / 2;
  const VitWeights w = random_weights(cfg, 7);
  const PartitionPlan plan =
      partition_model(w, PartitionStrategy::kTensor, 2);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].head_begin, 0);
  EXPECT_EQ(plan.shards[0].head_end, 1);
  EXPECT_EQ(plan.shards[1].head_begin, 1);
  const TensorBlockShard& s1 = plan.shards[1].blocks[0];
  ASSERT_EQ(s1.qkv_w.size(), static_cast<std::size_t>(d) * 3 * dc);
  // Card 1's Q columns are the full qkv_w's columns [dc, d).
  for (int r = 0; r < d; ++r) {
    for (int c = 0; c < dc; ++c) {
      EXPECT_EQ(s1.qkv_w[static_cast<std::size_t>(r) * 3 * dc + c],
                w.blocks[0].qkv_w[static_cast<std::size_t>(r) * 3 * d + dc + c]);
    }
  }
  // Card 1's V bias is the tail half of the V segment.
  EXPECT_EQ(s1.qkv_b[2 * dc],
            w.blocks[0].qkv_b[static_cast<std::size_t>(2 * d + dc)]);
}

// ---- executor: functional bit-identity ------------------------------------

std::vector<float> single_card_reference(const VitWeights& w,
                                         const std::vector<float>& x,
                                         ForwardStats* stats = nullptr) {
  const VitModel model(w);
  const AcceleratorSystem sys{SystemConfig{}};
  return model.forward_mixed(x, sys, stats);
}

TEST(ClusterExecutor, TensorForwardBitIdenticalToSingleCard) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 11);
  const std::vector<float> x = random_embeddings(cfg, 5);
  const std::vector<float> want = single_card_reference(w, x);

  const ClusterExecutor exec(w, ClusterTopology::ring(2),
                             PartitionStrategy::kTensor);
  ClusterStats stats;
  const std::vector<float> got = exec.forward(x, &stats);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(float)))
      << "tensor-sharded forward must reproduce the single-card bits";
  EXPECT_GT(stats.collective_cycles, 0u);
  EXPECT_GT(stats.collective_bytes, 0u);
  EXPECT_EQ(stats.collective_bytes,
            exec.plan().collective_bytes_per_forward);
}

TEST(ClusterExecutor, PipelineForwardBitIdenticalToSingleCard) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 11);
  const std::vector<float> x = random_embeddings(cfg, 5);
  const std::vector<float> want = single_card_reference(w, x);

  const ClusterExecutor exec(w, ClusterTopology::ring(2),
                             PartitionStrategy::kPipeline);
  ClusterStats stats;
  const std::vector<float> got = exec.forward(x, &stats);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(float)));
  ASSERT_EQ(stats.stage_send_cycles.size(), 1u);
  EXPECT_GT(stats.stage_send_cycles[0], 0u);
}

TEST(ClusterExecutor, BitIdenticalAcrossThreadPoolSizes) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 13);
  const std::vector<float> x = random_embeddings(cfg, 9);

  for (const PartitionStrategy strategy :
       {PartitionStrategy::kPipeline, PartitionStrategy::kTensor}) {
    const ClusterExecutor exec(w, ClusterTopology::ring(2), strategy);
    ClusterStats serial_stats;
    const std::vector<float> serial = exec.forward(x, &serial_stats);
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      ClusterStats stats;
      const std::vector<float> got = exec.forward(x, &stats, &pool);
      EXPECT_EQ(0, std::memcmp(got.data(), serial.data(),
                               serial.size() * sizeof(float)))
          << to_string(strategy) << " with " << threads << " workers";
      EXPECT_EQ(stats.compute_cycles, serial_stats.compute_cycles);
      EXPECT_EQ(stats.collective_cycles, serial_stats.collective_cycles);
      EXPECT_EQ(stats.card_compute_cycles, serial_stats.card_compute_cycles);
      EXPECT_EQ(stats.bfp_macs, serial_stats.bfp_macs);
    }
  }
}

TEST(ClusterExecutor, SingleCardClusterIsDegenerate) {
  // A 1-card "cluster" must be indistinguishable from the standalone
  // single-card path: same bits, same modelled cycles, zero collectives.
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 17);
  const std::vector<float> x = random_embeddings(cfg, 3);
  ForwardStats fstats;
  const std::vector<float> want = single_card_reference(w, x, &fstats);

  for (const PartitionStrategy strategy :
       {PartitionStrategy::kPipeline, PartitionStrategy::kTensor}) {
    const ClusterExecutor exec(w, ClusterTopology::ring(1), strategy);
    ClusterStats stats;
    const std::vector<float> got = exec.forward(x, &stats);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             want.size() * sizeof(float)))
        << to_string(strategy);
    EXPECT_EQ(stats.collective_cycles, 0u) << to_string(strategy);
    EXPECT_EQ(stats.collective_bytes, 0u) << to_string(strategy);
    EXPECT_EQ(stats.total_cycles(), fstats.total_cycles())
        << to_string(strategy);
    EXPECT_EQ(stats.bfp_macs, fstats.bfp_macs) << to_string(strategy);
  }
}

TEST(ClusterExecutor, TensorCardsChargeSymmetrically) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 19);
  const ClusterExecutor exec(w, ClusterTopology::ring(2),
                             PartitionStrategy::kTensor);
  ClusterStats stats;
  (void)exec.forward(random_embeddings(cfg, 1), &stats);
  ASSERT_EQ(stats.card_compute_cycles.size(), 2u);
  EXPECT_EQ(stats.card_compute_cycles[0], stats.card_compute_cycles[1]);
  EXPECT_EQ(stats.compute_cycles, stats.card_compute_cycles[0]);
}

// ---- executor: stream timing ----------------------------------------------

TEST(ClusterExecutor, SingleRequestStreamMatchesRequestLatency) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 23);
  const ClusterExecutor exec(w, ClusterTopology::ring(2),
                             PartitionStrategy::kPipeline);
  ClusterStats stats;
  (void)exec.forward(random_embeddings(cfg, 1), &stats);
  const StreamTiming t = exec.project_stream(stats, 1);
  EXPECT_EQ(t.makespan_cycles, stats.total_cycles());
  EXPECT_EQ(t.request_cycles, stats.total_cycles());
}

TEST(ClusterExecutor, StreamThroughputRunsAtTheCardClock) {
  // requests/s converts the makespan at the card's own fabric clock: a
  // 150 MHz card models the same cycles as a 300 MHz one at half the rate.
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 23);
  SystemConfig slow_card;
  slow_card.pu.freq_hz = 150e6;
  const ClusterExecutor slow(
      w, ClusterTopology::ring(2, LinkConfig{}, slow_card),
      PartitionStrategy::kPipeline);
  const ClusterExecutor fast(w, ClusterTopology::ring(2),
                             PartitionStrategy::kPipeline);
  ClusterStats stats;
  (void)slow.forward(random_embeddings(cfg, 1), &stats);
  const StreamTiming t = slow.project_stream(stats, 8);
  const StreamTiming t_fast = fast.project_stream(stats, 8);
  EXPECT_EQ(t.makespan_cycles, t_fast.makespan_cycles);
  EXPECT_DOUBLE_EQ(t.requests_per_second,
                   8.0 * 150e6 / static_cast<double>(t.makespan_cycles));
  EXPECT_DOUBLE_EQ(t.requests_per_second, t_fast.requests_per_second / 2);
}

TEST(ClusterExecutor, TwoCardPipelinePrefillSpeedupAtLeast1p6x) {
  // Acceptance pin: a compute-bound shape must scale >= 1.6x from one to
  // two cards on a 16-request prefill stream (ideal 2R/(R+1) = 1.88x).
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 29);
  const std::vector<float> x = random_embeddings(cfg, 1);

  const ClusterExecutor one(w, ClusterTopology::ring(1),
                            PartitionStrategy::kPipeline);
  ClusterStats s1;
  (void)one.forward(x, &s1);
  const double rps1 = one.project_stream(s1, 16).requests_per_second;

  const ClusterExecutor two(w, ClusterTopology::ring(2),
                            PartitionStrategy::kPipeline);
  ClusterStats s2;
  (void)two.forward(x, &s2);
  const StreamTiming t2 = two.project_stream(s2, 16);

  ASSERT_GT(rps1, 0.0);
  EXPECT_GE(t2.requests_per_second / rps1, 1.6);
  ASSERT_EQ(t2.card_utilization.size(), 2u);
  for (const double u : t2.card_utilization) {
    EXPECT_GT(u, 0.5);
    EXPECT_LE(u, 1.0);
  }
}

// ---- cluster serving -------------------------------------------------------

/// `replicas` fixed copies of a `cards`-card cluster: a one-class fleet.
Session::FleetConfig cluster_fleet(int cards, int replicas,
                                   PartitionStrategy strategy) {
  Session::FleetConfig fleet;
  fleet.classes = {{cards, strategy, replicas, replicas}};
  return fleet;
}

TEST(ClusterServing, OneCardReplicaMatchesSingleUnitServeOnline) {
  // The degenerate case pinning the whole stack: one 1-card replica whose
  // card has one unit must reproduce the standalone single-unit serving
  // run bit-for-bit (same pass costs, same event schedule, same records).
  const VitConfig cfg = tp2_config();
  SystemConfig one;
  one.num_units = 1;
  const VitModel model(random_weights(cfg, 37));
  const ArrivalTrace trace = poisson_trace(8, 4000.0, 5);
  const ServePolicy policy;

  const AcceleratorSystem sys(one);
  const OnlineServeResult want = serve_online(model, sys, trace, policy);

  Session session(one);
  const ModelId id = session.deploy(model.weights());
  const Session::FleetServeResult got = session.serve_fleet(
      id, cluster_fleet(1, 1, PartitionStrategy::kPipeline), trace, policy);
  const ServeReport& rep = got.report.serve;

  ASSERT_EQ(rep.records.size(), want.report.records.size());
  for (std::size_t i = 0; i < want.report.records.size(); ++i) {
    const LatencyRecord& a = want.report.records[i];
    const LatencyRecord& b = rep.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_cycle, b.arrival_cycle);
    EXPECT_EQ(a.dispatch_cycle, b.dispatch_cycle);
    EXPECT_EQ(a.complete_cycle, b.complete_cycle);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.slo_met, b.slo_met);
  }
  EXPECT_EQ(rep.makespan_cycles, want.report.makespan_cycles);
  EXPECT_EQ(rep.latency.p99, want.report.latency.p99);
  // Functional features are the same forward — bit-identical.
  ASSERT_EQ(got.features.size(), want.features.size());
  for (std::size_t i = 0; i < want.features.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(got.features[i].data(), want.features[i].data(),
                             want.features[i].size() * sizeof(float)));
  }
}

TEST(ClusterServing, ReportBitIdenticalAcrossThreadPoolSizes) {
  const VitConfig cfg = tp2_config();
  const VitWeights weights = random_weights(cfg, 41);
  Session session;
  const ModelId id = session.deploy(weights);
  const Session::FleetConfig fleet =
      cluster_fleet(2, 2, PartitionStrategy::kTensor);
  const ArrivalTrace trace = poisson_trace(10, 8000.0, 7);
  const ServePolicy policy;

  const Session::FleetServeResult serial =
      session.serve_fleet(id, fleet, trace, policy);
  const std::string want_json = serial.report.serve.to_json();
  // Request i's features are the sharded forward of its seeded embeddings.
  const ClusterExecutor exec(weights, ClusterTopology::ring(2),
                             PartitionStrategy::kTensor);
  ASSERT_EQ(serial.features.size(), 10u);
  for (std::size_t i = 0; i < serial.features.size(); ++i) {
    const std::vector<float> want =
        exec.forward(random_embeddings(cfg, trace.seed + i));
    ASSERT_EQ(serial.features[i].size(), want.size());
    EXPECT_EQ(0, std::memcmp(serial.features[i].data(), want.data(),
                             want.size() * sizeof(float)));
  }
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const Session::FleetServeResult got =
        session.serve_fleet(id, fleet, trace, policy, &pool);
    EXPECT_EQ(got.report.serve.to_json(), want_json)
        << threads << " workers must not change the serving report";
    ASSERT_EQ(got.features.size(), serial.features.size());
    for (std::size_t i = 0; i < serial.features.size(); ++i) {
      EXPECT_EQ(0,
                std::memcmp(got.features[i].data(), serial.features[i].data(),
                            serial.features[i].size() * sizeof(float)));
    }
  }
}

TEST(ClusterServing, SessionClusterFleetEndToEnd) {
  Session session;
  const VitConfig cfg = tp2_config();
  const ModelId id = session.deploy(random_weights(cfg, 43), "tiny");
  const ArrivalTrace trace = poisson_trace(8, 8000.0, 9);
  const Session::FleetServeResult r = session.serve_fleet(
      id, cluster_fleet(2, 2, PartitionStrategy::kTensor), trace,
      ServePolicy{});
  const ServeReport& rep = r.report.serve;
  EXPECT_EQ(rep.records.size() + rep.rejected_ids.size(), 8u);
  EXPECT_EQ(rep.counters.get("cluster.cards"), 2u);
  EXPECT_EQ(rep.counters.get("cluster.replicas"), 2u);
  EXPECT_GT(rep.counters.get("cluster.collective_cycles"), 0u);
  // The serve landed in the command log.
  ASSERT_FALSE(session.log().empty());
  EXPECT_NE(session.log().back().detail.find("serve_fleet"),
            std::string::npos);
}

}  // namespace
}  // namespace bfpsim
