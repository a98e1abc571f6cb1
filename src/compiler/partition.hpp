// Table IV from the priced program: a compiled encoder's schedule
// (CompiledModel::plan(), each node charged the cycles the Executor charges
// for its instructions) rolled up by graph-op family into the paper's
// workload partitions. The rows sum exactly to price().device_cycles, so
// Table IV, bfpsim batch and the serving paths report one cycle count per
// forward.
#pragma once

#include <array>
#include <cstdint>

#include "compiler/compile.hpp"
#include "transformer/config.hpp"

namespace bfpsim {

/// Table IV's rows in report order, with the graph ops each one holds.
enum class Partition : std::uint8_t {
  kMatMul,     ///< "bfp8 MatMul": matmul
  kLayerNorm,  ///< "fp32 LayerNorm": layernorm, rmsnorm
  kSoftmax,    ///< "fp32 SoftMax": softmax
  /// "fp32 GELU": gelu, silu, bias+gelu, bias+silu (the fc1 bias add the
  /// fusion pass folds into the activation is charged here)
  kGelu,
  /// "fp32 residual/bias": add, mul, scale, bias_add, bias+res, rope
  kResidualBias,
  /// "data movement": transpose, slice, concat; input, constant (0 cycles)
  kDataMovement,
};
inline constexpr std::size_t kNumPartitions = 6;

/// The one row a graph op's cycles and operations land in.
Partition partition_of(GraphOp op);

struct WorkloadRow {
  const char* partition = "";
  std::uint64_t cycles = 0;
  double mega_ops = 0.0;  ///< NodePlan::ops in millions
  double ops_proportion = 0.0;
  double latency_ms = 0.0;
  double latency_proportion = 0.0;
};

struct WorkloadBreakdown {
  std::array<WorkloadRow, kNumPartitions> rows;  ///< indexed by Partition
  std::uint64_t total_cycles = 0;  ///< price().device_cycles
  double total_mega_ops = 0.0;
  double total_latency_ms = 0.0;
  double fp32_ops_share = 0.0;      ///< the paper's "1.35% of workload"
  double fp32_latency_share = 0.0;  ///< the paper's "92.45% of latency"

  const WorkloadRow& row(Partition p) const {
    return rows[static_cast<std::size_t>(p)];
  }
};

/// Roll `model`'s plan up into Table IV at clock `freq_hz`; the fp32
/// shares sum the four fp32 rows.
WorkloadBreakdown workload_breakdown(const CompiledModel& model,
                                     double freq_hz);

/// `cfg`'s fused encoder (spec_of(cfg)) compiled for `system` through the
/// macro kernels, with every softmax on the split exp when `softermax`.
CompiledModel compile_vit(const VitConfig& cfg,
                          const AcceleratorSystem& system,
                          bool softermax = false);

}  // namespace bfpsim
