#include "cluster/cluster_executor.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace bfpsim {

ClusterExecutor::ClusterExecutor(const VitWeights& weights,
                                 ClusterTopology topology,
                                 PartitionStrategy strategy)
    : topo_(std::move(topology)),
      plan_(partition_model(weights, strategy, topo_.num_cards())) {
  topo_.validate();
}

std::vector<std::span<const BfpBlockWeights>> ClusterExecutor::bind() const {
  std::vector<std::span<const BfpBlockWeights>> bound(
      static_cast<std::size_t>(plan_.cards));
  const PuConfig& pu = topo_.card_config().pu;
  if (pu.mode != "bfp8") return bound;
  std::call_once(resident_->once, [&] {
    for (const PipelineStage& stage : plan_.stages) {
      resident_->cards.push_back(
          quantize_block_weights(stage.weights.blocks, stage.weights.cfg, pu));
    }
    for (const TensorShard& shard : plan_.shards) {
      resident_->cards.push_back(
          quantize_block_weights(shard.blocks, plan_.cfg, pu));
    }
  });
  for (std::size_t c = 0; c < bound.size(); ++c) {
    bound[c] = resident_->cards[c];
  }
  return bound;
}

std::vector<float> ClusterExecutor::forward(std::vector<float> x,
                                            ClusterStats* stats,
                                            ThreadPool* pool) const {
  return plan_.strategy == PartitionStrategy::kPipeline
             ? forward_pipeline(std::move(x), stats, pool)
             : forward_tensor(std::move(x), stats, pool);
}

std::vector<float> ClusterExecutor::forward_pipeline(std::vector<float> x,
                                                     ClusterStats* stats,
                                                     ThreadPool* pool) const {
  // Each stage runs forward_sharded over its blocks as the one shard:
  // chaining the stages is the single-card walk with the same state tensor
  // carried across — bit-identical output.
  AcceleratorSystem sys(topo_.card_config());
  sys.set_thread_pool(pool);
  const std::vector<std::span<const BfpBlockWeights>> bound = bind();
  ClusterStats local;
  local.card_compute_cycles.resize(plan_.cards, 0);
  for (int c = 0; c < plan_.cards; ++c) {
    const PipelineStage& stage = plan_.stages[static_cast<std::size_t>(c)];
    const std::span<const TensorBlockShard> shard(stage.weights.blocks);
    const std::span<const BfpBlockWeights> resident =
        bound[static_cast<std::size_t>(c)];
    ForwardStats fstats;
    x = forward_sharded(std::move(x), stage.weights.cfg, std::span(&shard, 1),
                        std::span(&resident, 1), sys,
                        PrecisionPolicy::all_bfp8(), std::span(&fstats, 1));
    local.card_compute_cycles[static_cast<std::size_t>(c)] =
        fstats.total_cycles();
    local.compute_cycles += fstats.total_cycles();
    local.bfp_macs += fstats.bfp_macs;
    if (c + 1 < plan_.cards) {
      const std::uint64_t send =
          topo_.p2p_cycles(c, c + 1, plan_.boundary_bytes);
      local.stage_send_cycles.push_back(send);
      local.collective_cycles += send;
      local.collective_bytes += plan_.boundary_bytes;
    }
  }
  if (stats != nullptr) *stats = std::move(local);
  return x;
}

std::vector<float> ClusterExecutor::forward_tensor(std::vector<float> x,
                                                   ClusterStats* stats,
                                                   ThreadPool* pool) const {
  AcceleratorSystem sys(topo_.card_config());
  sys.set_thread_pool(pool);
  std::vector<std::span<const TensorBlockShard>> shards;
  for (const TensorShard& shard : plan_.shards) {
    shards.emplace_back(shard.blocks);
  }
  std::vector<ForwardStats> card_stats(shards.size());
  std::vector<std::uint64_t> gathers;
  x = forward_sharded(std::move(x), plan_.cfg, shards, bind(), sys,
                      PrecisionPolicy::all_bfp8(), card_stats, &gathers);

  ClusterStats local;
  for (const ForwardStats& card : card_stats) {
    local.card_compute_cycles.push_back(card.total_cycles());
    local.bfp_macs += card.bfp_macs;
  }
  // Cards run concurrently: the critical path is the slowest card (all
  // equal by symmetry, but max() keeps the invariant explicit).
  local.compute_cycles = *std::max_element(
      local.card_compute_cycles.begin(), local.card_compute_cycles.end());
  // Each all-gather runs the ring schedule on the interconnect.
  const auto n = static_cast<std::uint64_t>(plan_.cards);
  for (const std::uint64_t bytes : gathers) {
    local.collective_cycles += topo_.all_gather_cycles(bytes);
    if (n > 1) local.collective_bytes += (n - 1) * ((bytes + n - 1) / n) * n;
  }
  if (stats != nullptr) *stats = std::move(local);
  return x;
}

StreamTiming ClusterExecutor::project_stream(const ClusterStats& per_request,
                                             int requests) const {
  BFP_REQUIRE(requests >= 1, "project_stream: need at least one request");
  // Tandem-queue recurrence over an alternating chain of resources:
  //   pipeline — card 0, link 0->1, card 1, ..., card C-1;
  //   tensor   — the card group, then the interconnect (request i's
  //              gathers overlap request i+1's compute).
  // finish[r][i] = max(finish[r][i-1], finish[r-1][i]) + time[r].
  const int cards = topo_.num_cards();
  const bool pipelined = plan_.strategy == PartitionStrategy::kPipeline;
  const std::size_t resources =
      pipelined ? static_cast<std::size_t>(2 * cards - 1) : 2;
  auto resource_time = [&](std::size_t r) {
    const ClusterStats& s = per_request;
    if (!pipelined) return r == 0 ? s.compute_cycles : s.collective_cycles;
    return r % 2 == 0 ? s.card_compute_cycles[r / 2]
                      : s.stage_send_cycles[r / 2];
  };
  std::vector<std::uint64_t> finish(resources, 0);
  for (int i = 0; i < requests; ++i) {
    std::uint64_t upstream = 0;
    for (std::size_t r = 0; r < resources; ++r) {
      finish[r] = std::max(finish[r], upstream) + resource_time(r);
      upstream = finish[r];
    }
  }

  const auto n = static_cast<std::uint64_t>(requests);
  StreamTiming timing;
  timing.requests = requests;
  timing.request_cycles = per_request.total_cycles();
  timing.makespan_cycles = finish.back();
  timing.collective_bytes = n * per_request.collective_bytes;
  const double makespan = static_cast<double>(timing.makespan_cycles);
  timing.requests_per_second =
      timing.makespan_cycles == 0 ? 0.0
                                  : static_cast<double>(requests) *
                                        topo_.card_config().pu.freq_hz /
                                        makespan;
  timing.card_utilization.resize(static_cast<std::size_t>(cards), 0.0);
  for (std::size_t c = 0; c < timing.card_utilization.size(); ++c) {
    timing.card_utilization[c] =
        timing.makespan_cycles == 0
            ? 0.0
            : static_cast<double>(n * per_request.card_compute_cycles[c]) /
                  makespan;
  }
  const std::uint64_t collective = n * per_request.collective_cycles;
  const std::uint64_t work = n * per_request.compute_cycles + collective;
  timing.collective_share =
      work == 0 ? 0.0
                : static_cast<double>(collective) / static_cast<double>(work);
  return timing;
}

StreamTiming probe_stream(const VitWeights& weights,
                          const ClusterTopology& topology,
                          PartitionStrategy strategy, int requests,
                          ThreadPool* pool) {
  const ClusterExecutor exec(weights, topology, strategy);
  ClusterStats stats;
  (void)exec.forward(random_embeddings(weights.cfg, 1), &stats, pool);
  return exec.project_stream(stats, requests);
}

}  // namespace bfpsim
