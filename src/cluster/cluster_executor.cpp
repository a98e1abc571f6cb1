#include "cluster/cluster_executor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bfpsim {

ClusterExecutor::ClusterExecutor(const VitWeights& weights,
                                 ClusterTopology topology,
                                 PartitionStrategy strategy)
    : topo_(std::move(topology)),
      plan_(partition_model(weights, strategy, topo_.num_cards())) {
  topo_.validate();
  if (plan_.strategy == PartitionStrategy::kPipeline) {
    stage_models_.reserve(plan_.stages.size());
    for (const PipelineStage& stage : plan_.stages) {
      stage_models_.emplace_back(stage.weights);
    }
  }
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
  // Chaining the stage sub-models block-by-block is the single-card loop
  // with the same state tensor carried across — bit-identical output.
  AcceleratorSystem sys(topo_.card_config());
  sys.set_thread_pool(pool);
  ClusterStats local;
  local.card_compute_cycles.resize(plan_.cards, 0);
  for (int c = 0; c < plan_.cards; ++c) {
    ForwardStats fstats;
    x = stage_models_[static_cast<std::size_t>(c)].forward_mixed(
        std::move(x), sys, &fstats);
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
  x = forward_sharded(std::move(x), plan_.cfg, shards, sys,
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

ClusterExecutor::StreamResult ClusterExecutor::forward_stream(
    std::span<const std::vector<float>> inputs, ThreadPool* pool) const {
  StreamResult result;
  result.features.resize(inputs.size());
  result.per_request.resize(inputs.size());
  auto run_one = [&](std::size_t i) {
    result.features[i] =
        forward(inputs[i], &result.per_request[i], nullptr);
  };
  if (pool != nullptr && pool->size() > 1 && inputs.size() > 1) {
    pool->parallel_for(inputs.size(), run_one);
  } else {
    // Single request (or no pool): let the GEMM tiles use the workers.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      result.features[i] = forward(inputs[i], &result.per_request[i], pool);
    }
  }
  result.timing = assemble_timing(result.per_request);
  return result;
}

StreamTiming ClusterExecutor::project_stream(const ClusterStats& per_request,
                                             int requests) const {
  BFP_REQUIRE(requests >= 1, "project_stream: need at least one request");
  std::vector<ClusterStats> stream(static_cast<std::size_t>(requests),
                                   per_request);
  return assemble_timing(stream);
}

StreamTiming ClusterExecutor::assemble_timing(
    std::span<const ClusterStats> per_request) const {
  // Tandem-queue recurrence over an alternating chain of resources:
  //   pipeline — card 0, link 0->1, card 1, ..., card C-1;
  //   tensor   — the card group, then the interconnect (request i's
  //              gathers overlap request i+1's compute).
  // finish[r][i] = max(finish[r][i-1], finish[r-1][i]) + time[r][i].
  StreamTiming timing;
  timing.requests = static_cast<int>(per_request.size());
  if (per_request.empty()) return timing;

  const int cards = topo_.num_cards();
  const bool pipelined = plan_.strategy == PartitionStrategy::kPipeline;
  const std::size_t resources =
      pipelined ? static_cast<std::size_t>(2 * cards - 1) : 2;
  auto resource_time = [&](const ClusterStats& s, std::size_t r) {
    if (!pipelined) return r == 0 ? s.compute_cycles : s.collective_cycles;
    return r % 2 == 0 ? s.card_compute_cycles[r / 2]
                      : s.stage_send_cycles[r / 2];
  };

  std::vector<std::uint64_t> finish(resources, 0);
  std::vector<std::uint64_t> card_busy(static_cast<std::size_t>(cards), 0);
  std::uint64_t compute_total = 0;
  std::uint64_t collective_total = 0;
  for (const ClusterStats& s : per_request) {
    std::uint64_t upstream = 0;
    for (std::size_t r = 0; r < resources; ++r) {
      finish[r] = std::max(finish[r], upstream) + resource_time(s, r);
      upstream = finish[r];
    }
    for (int c = 0; c < cards; ++c) {
      card_busy[static_cast<std::size_t>(c)] +=
          s.card_compute_cycles[static_cast<std::size_t>(c)];
    }
    compute_total += s.compute_cycles;
    collective_total += s.collective_cycles;
    timing.collective_bytes += s.collective_bytes;
  }

  timing.request_cycles = per_request[0].total_cycles();
  timing.makespan_cycles = finish.back();
  timing.requests_per_second =
      timing.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(per_request.size()) *
                topo_.card_config().pu.freq_hz /
                static_cast<double>(timing.makespan_cycles);
  timing.card_utilization.resize(static_cast<std::size_t>(cards), 0.0);
  for (int c = 0; c < cards; ++c) {
    timing.card_utilization[static_cast<std::size_t>(c)] =
        timing.makespan_cycles == 0
            ? 0.0
            : static_cast<double>(card_busy[static_cast<std::size_t>(c)]) /
                  static_cast<double>(timing.makespan_cycles);
  }
  const std::uint64_t work = compute_total + collective_total;
  timing.collective_share =
      work == 0 ? 0.0
                : static_cast<double>(collective_total) /
                      static_cast<double>(work);
  return timing;
}

}  // namespace bfpsim
