#include "compiler/partition.hpp"

#include <numeric>

#include "compiler/spec_graph.hpp"

namespace bfpsim {

Partition partition_of(GraphOp op) {
  switch (op) {
    case GraphOp::kMatMul: return Partition::kMatMul;
    case GraphOp::kLayerNorm:
    case GraphOp::kRmsNorm: return Partition::kLayerNorm;
    case GraphOp::kSoftmax: return Partition::kSoftmax;
    case GraphOp::kGelu:
    case GraphOp::kSilu:
    case GraphOp::kFusedBiasGelu:
    case GraphOp::kFusedBiasSilu: return Partition::kGelu;
    case GraphOp::kAdd:
    case GraphOp::kMul:
    case GraphOp::kScale:
    case GraphOp::kBiasAdd:
    case GraphOp::kFusedBiasResidual:
    case GraphOp::kRope: return Partition::kResidualBias;
    case GraphOp::kInput:
    case GraphOp::kConstant:
    case GraphOp::kTranspose:
    case GraphOp::kSliceCols:
    case GraphOp::kConcatCols: return Partition::kDataMovement;
  }
  BFP_ASSERT(false);
  return Partition::kDataMovement;
}

WorkloadBreakdown workload_breakdown(const CompiledModel& model,
                                     double freq_hz) {
  static constexpr const char* kNames[kNumPartitions] = {
      "bfp8 MatMul", "fp32 LayerNorm",     "fp32 SoftMax",
      "fp32 GELU",   "fp32 residual/bias", "data movement"};
  std::array<std::uint64_t, kNumPartitions> ops{};
  WorkloadBreakdown out;
  for (const NodePlan& p : model.plan()) {
    const auto i = static_cast<std::size_t>(partition_of(p.op));
    out.rows[i].cycles += p.cycles;
    ops[i] += p.ops;
  }
  out.total_cycles = model.price().device_cycles;
  const auto total_ops = std::accumulate(ops.begin(), ops.end(), 0ULL);
  BFP_ASSERT(out.total_cycles > 0 && total_ops > 0);
  for (std::size_t i = 0; i < kNumPartitions; ++i) {
    WorkloadRow& r = out.rows[i];
    r.partition = kNames[i];
    r.mega_ops = static_cast<double>(ops[i]) / 1e6;
    r.ops_proportion =
        static_cast<double>(ops[i]) / static_cast<double>(total_ops);
    r.latency_ms = static_cast<double>(r.cycles) / freq_hz * 1e3;
    r.latency_proportion =
        static_cast<double>(r.cycles) / static_cast<double>(out.total_cycles);
    out.total_mega_ops += r.mega_ops;
    out.total_latency_ms += r.latency_ms;
    const auto row = static_cast<Partition>(i);
    if (row != Partition::kMatMul && row != Partition::kDataMovement) {
      out.fp32_ops_share += r.ops_proportion;
      out.fp32_latency_share += r.latency_proportion;
    }
  }
  return out;
}

CompiledModel compile_vit(const VitConfig& cfg,
                          const AcceleratorSystem& system, bool softermax) {
  return compile(build_fused_spec_graph(spec_of(cfg)), system,
                 {.macro_kernels = true, .softermax = softermax});
}

}  // namespace bfpsim
