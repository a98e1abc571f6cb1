// Per-layer schedule search over the cluster cost model: for every
// encoder block, choose pipeline (whole block resident on one stage card,
// activations crossing stage boundaries point-to-point) or tensor
// (Megatron-style head/column split with 4 ring all-gathers per block),
// minimizing single-request latency by dynamic programming over the block
// chain.
//
// The DP's all-pipeline path prices out to exactly the uniform pipeline
// plan and its all-tensor path to the uniform tensor plan, so the chosen
// schedule is never slower than the best uniform --strategy — the
// acceptance bar the cluster bench pins. Everything is analytic (the same
// gemm_latency / vector_latency / topology collective model the cluster
// executor charges), so the search is deterministic and costs microseconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/partitioner.hpp"
#include "cluster/topology.hpp"
#include "transformer/config.hpp"

namespace bfpsim {

/// One block's scheduling decision.
struct BlockSchedule {
  int block = 0;
  PartitionStrategy strategy = PartitionStrategy::kPipeline;
  std::uint64_t pipeline_cycles = 0;  ///< candidate cost, this block
  std::uint64_t tensor_cycles = 0;    ///< candidate cost, this block
};

/// The searched schedule plus the uniform plans it was compared against.
struct ScheduleDecision {
  int cards = 1;
  std::vector<BlockSchedule> blocks;
  std::uint64_t cycles = 0;               ///< chosen plan, per request
  std::uint64_t uniform_pipeline_cycles = 0;
  std::uint64_t uniform_tensor_cycles = 0;
  int tensor_blocks = 0;
  int pipeline_blocks = 0;

  bool mixed() const {
    return tensor_blocks > 0 && pipeline_blocks > 0;
  }
  /// Human-readable table (one row per block) + totals.
  std::string report() const;
  /// Single-line JSON record for bench output.
  std::string to_json() const;
};

/// Search the per-block schedule for `cfg` on a `cards`-card topology.
/// Requires the same divisibility as partition_model (depth % cards for
/// pipeline, heads % cards and block-aligned column splits for tensor);
/// when the tensor split does not divide, every block degenerates to
/// pipeline (and vice versa).
ScheduleDecision search_schedule(const VitConfig& cfg,
                                 const ClusterTopology& topo);

}  // namespace bfpsim
