// Tests for the multi-card cluster subsystem: topology/link validation and
// cost model, virtual-time collectives, the partitioner's divisibility
// rules, and the determinism contract extended across cards — a sharded
// forward (tensor or pipeline) must reproduce the single-card
// forward_mixed bit-for-bit, for any ThreadPool size, and a 1-card
// "cluster" must be indistinguishable from the standalone single-card
// serving path.
#include "cluster/cluster_executor.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "cluster/cluster_serving.hpp"
#include "cluster/collectives.hpp"
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
  EXPECT_EQ(topo.all_reduce_cycles(1 << 20), 0u);
}

TEST(ClusterTopology, CardCountBounds) {
  EXPECT_THROW(ClusterTopology::ring(0), Error);
  EXPECT_THROW(ClusterTopology::ring(65), Error);
  EXPECT_NO_THROW(ClusterTopology::ring(64));
}

// ---- collectives ----------------------------------------------------------

TEST(Collectives, AllGatherConcatenatesInCardOrder) {
  const ClusterTopology topo = ClusterTopology::ring(3);
  const std::vector<std::vector<float>> shards = {
      {1.0F, 2.0F}, {3.0F, 4.0F}, {5.0F, 6.0F}};
  std::vector<float> out;
  const CollectiveCost cost = all_gather(topo, shards, &out);
  const std::vector<float> want = {1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F};
  EXPECT_EQ(out, want);
  EXPECT_EQ(cost.cycles, topo.all_gather_cycles(6 * sizeof(float)));
  EXPECT_GT(cost.bytes, 0u);
}

TEST(Collectives, AllReduceSumsInFixedCardOrder) {
  const ClusterTopology topo = ClusterTopology::ring(3);
  std::vector<std::vector<float>> bufs = {
      {1.0F, 10.0F}, {2.0F, 20.0F}, {4.0F, 40.0F}};
  const CollectiveCost cost = all_reduce(topo, bufs);
  // ((card0 + card1) + card2), elementwise, exactly.
  const float want0 = (1.0F + 2.0F) + 4.0F;
  const float want1 = (10.0F + 20.0F) + 40.0F;
  for (const auto& b : bufs) {
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0], want0);
    EXPECT_EQ(b[1], want1);
  }
  EXPECT_EQ(cost.cycles, topo.all_reduce_cycles(2 * sizeof(float)));
}

TEST(Collectives, RingAllReduceCostMatchesClosedForm) {
  // Acceptance pin: 2(N-1) steps of one ceil(B/N)-byte shard each, i.e.
  // the classic 2(N-1)/N * B / bandwidth wire time plus per-step burst
  // overhead and latency terms — nothing else.
  LinkConfig link;
  link.bytes_per_cycle = 16;
  link.latency_cycles = 500;
  link.burst_bytes = 4096;
  link.burst_overhead_cycles = 32;
  const int n = 4;
  const std::uint64_t bytes = 1u << 20;  // divisible by n
  const ClusterTopology topo = ClusterTopology::ring(n, link);

  const std::uint64_t shard = bytes / n;
  const std::uint64_t steps = 2 * (n - 1);
  EXPECT_EQ(topo.all_reduce_cycles(bytes),
            steps * link_transfer_cycles(link, shard));

  const double wire = static_cast<double>(steps) *
                      static_cast<double>(shard) /
                      static_cast<double>(link.bytes_per_cycle);
  const std::uint64_t bursts = (shard + 4096 - 1) / 4096;
  const double overhead_bound =
      static_cast<double>(steps) *
      static_cast<double>(link.latency_cycles +
                          bursts * static_cast<std::uint64_t>(
                                       link.burst_overhead_cycles) +
                          1);
  const auto got = static_cast<double>(topo.all_reduce_cycles(bytes));
  EXPECT_GE(got, wire);
  EXPECT_LE(got, wire + overhead_bound);
}

TEST(Collectives, SingleCardCollectivesAreFree) {
  const ClusterTopology topo = ClusterTopology::ring(1);
  std::vector<std::vector<float>> bufs = {{1.0F, 2.0F}};
  const CollectiveCost r = all_reduce(topo, bufs);
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_EQ(bufs[0], (std::vector<float>{1.0F, 2.0F}));
  EXPECT_EQ(send(topo, 0, 0, 1024).cycles, 0u);
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

TEST(ClusterExecutor, ForwardStreamMatchesPerRequestForward) {
  const VitConfig cfg = tp2_config();
  const VitWeights w = random_weights(cfg, 31);
  const ClusterExecutor exec(w, ClusterTopology::ring(2),
                             PartitionStrategy::kTensor);
  std::vector<std::vector<float>> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_embeddings(cfg, 100 + i));
  }
  ThreadPool pool(4);
  const auto stream = exec.forward_stream(inputs, &pool);
  ASSERT_EQ(stream.features.size(), 3u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<float> want = exec.forward(inputs[i]);
    EXPECT_EQ(0, std::memcmp(stream.features[i].data(), want.data(),
                             want.size() * sizeof(float)));
  }
  EXPECT_EQ(stream.timing.requests, 3);
  EXPECT_GT(stream.timing.makespan_cycles, 0u);
}

// ---- cluster serving -------------------------------------------------------

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

  const ClusterExecutor exec(model.weights(),
                             ClusterTopology::ring(1, {}, one),
                             PartitionStrategy::kPipeline);
  const ClusterServeResult got = serve_cluster(exec, 1, trace, policy);

  ASSERT_EQ(got.report.records.size(), want.report.records.size());
  for (std::size_t i = 0; i < want.report.records.size(); ++i) {
    const LatencyRecord& a = want.report.records[i];
    const LatencyRecord& b = got.report.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_cycle, b.arrival_cycle);
    EXPECT_EQ(a.dispatch_cycle, b.dispatch_cycle);
    EXPECT_EQ(a.complete_cycle, b.complete_cycle);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.slo_met, b.slo_met);
  }
  EXPECT_EQ(got.report.makespan_cycles, want.report.makespan_cycles);
  EXPECT_EQ(got.report.latency.p99, want.report.latency.p99);
  // Functional features are the same forward — bit-identical.
  ASSERT_EQ(got.features.size(), want.features.size());
  for (std::size_t i = 0; i < want.features.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(got.features[i].data(), want.features[i].data(),
                             want.features[i].size() * sizeof(float)));
  }
}

TEST(ClusterServing, ReportBitIdenticalAcrossThreadPoolSizes) {
  const VitConfig cfg = tp2_config();
  const VitModel model(random_weights(cfg, 41));
  const ClusterExecutor exec(model.weights(), ClusterTopology::ring(2),
                             PartitionStrategy::kTensor);
  const ArrivalTrace trace = poisson_trace(10, 8000.0, 7);
  const ServePolicy policy;

  const ClusterServeResult serial = serve_cluster(exec, 2, trace, policy);
  const std::string want_json = serial.report.to_json();
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const ClusterServeResult got =
        serve_cluster(exec, 2, trace, policy, &pool);
    EXPECT_EQ(got.report.to_json(), want_json)
        << threads << " workers must not change the serving report";
    ASSERT_EQ(got.features.size(), serial.features.size());
    for (std::size_t i = 0; i < serial.features.size(); ++i) {
      EXPECT_EQ(0,
                std::memcmp(got.features[i].data(), serial.features[i].data(),
                            serial.features[i].size() * sizeof(float)));
    }
  }
}

TEST(ClusterServing, SessionServeClusterEndToEnd) {
  Session session;
  const VitConfig cfg = tp2_config();
  const ModelId id = session.deploy(random_weights(cfg, 43), "tiny");
  Session::ClusterSpec spec;
  spec.cards = 2;
  spec.replicas = 2;
  spec.strategy = PartitionStrategy::kTensor;
  const ArrivalTrace trace = poisson_trace(8, 8000.0, 9);
  const ClusterServeResult r =
      session.serve_cluster(id, spec, trace, ServePolicy{});
  EXPECT_EQ(r.report.records.size() + r.report.rejected_ids.size(), 8u);
  EXPECT_EQ(r.report.counters.get("cluster.cards"), 2u);
  EXPECT_EQ(r.report.counters.get("cluster.replicas"), 2u);
  EXPECT_GT(r.report.counters.get("cluster.collective_cycles"), 0u);
  // The serve landed in the command log.
  ASSERT_FALSE(session.log().empty());
  EXPECT_NE(session.log().back().detail.find("serve_cluster"),
            std::string::npos);
}

}  // namespace
}  // namespace bfpsim
