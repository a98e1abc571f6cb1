#include "replay.hpp"

#include "common/rng.hpp"
#include "isa/executor.hpp"

namespace perfbench {

using namespace bfpsim;

namespace {

/// Family index of an opcode in op_families().
std::size_t family_index(Opcode op) {
  switch (op) {
    case Opcode::kBfpMatmul:
      return 0;
    case Opcode::kSoftmaxM:
      return 1;
    case Opcode::kLayerNormM:
    case Opcode::kRmsNormM:
      return 2;
    case Opcode::kGeluM:
    case Opcode::kBiasGelu:
      return 3;
    case Opcode::kBiasResidual:
      return 4;
    case Opcode::kTranspose:
    case Opcode::kSliceCols:
    case Opcode::kConcatCols:
      return 5;
    default:
      return 6;
  }
}

// Span names, index-aligned with op_families().
const char* const kSpanNames[] = {
    "isa.op.matmul",        "isa.op.softmax",   "isa.op.layernorm",
    "isa.op.gelu",          "isa.op.bias_residual", "isa.op.data_move",
    "isa.op.other_vector"};

}  // namespace

const std::vector<std::string>& op_families() {
  static const std::vector<std::string> kFamilies = {
      "matmul",        "softmax",   "layernorm",   "gelu",
      "bias_residual", "data_move", "other_vector"};
  return kFamilies;
}

bool same_ops(const OpCounter& a, const OpCounter& b) {
  return a.fp_mul == b.fp_mul && a.fp_add == b.fp_add &&
         a.exp_manip == b.exp_manip && a.host_div == b.host_div &&
         a.host_other == b.host_other;
}

ReplayResult replay_program(const CompiledModel& cm,
                            const AcceleratorSystem& sys, std::uint64_t seed,
                            Spans& spans) {
  Executor ex(sys);
  Rng rng(seed);
  for (const VerifyValue& v : cm.verify_bindings().values) {
    if (!v.prebound) continue;
    std::vector<float> data(v.shape.elements());
    if (v.magnitude < 0.0) {
      for (float& x : data) x = rng.normal(0.0F, 1.0F);
    } else {
      const auto mag = static_cast<float>(v.magnitude);
      for (float& x : data) x = rng.uniform(-mag, mag);
    }
    ex.set_tensor(v.reg, v.shape.rows, v.shape.cols, data);
  }

  // One single-instruction program per instruction, built before timing.
  const std::vector<Instruction>& insts = cm.program().instructions();
  std::vector<Program> steps(insts.size());
  for (std::size_t i = 0; i < insts.size(); ++i) steps[i].push(insts[i]);

  ReplayResult out;
  for (const std::string& f : op_families()) out.families[f];
  Span whole(spans, "bench.replay");
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const std::size_t fam = family_index(insts[i].op);
    ExecutionStats st;
    const Clock::time_point t0 = Clock::now();
    {
      Span s(spans, kSpanNames[fam]);
      st = ex.run(steps[i]);
    }
    const double ms = ms_since(t0);
    FamilyStats& f = out.families[op_families()[fam]];
    ++f.count;
    f.host_ms += ms;
    f.device_cycles += st.device_cycles;
    if (insts[i].op == Opcode::kBfpMatmul) {
      f.macs += static_cast<std::uint64_t>(insts[i].m) * insts[i].k *
                insts[i].n;
    }
    out.host_ms += ms;
    out.total.device_cycles += st.device_cycles;
    out.total.move_cycles += st.move_cycles;
    out.total.host_ops += st.host_ops;
    out.total.ops += st.ops;
    out.total.instructions += st.instructions;
  }
  return out;
}

}  // namespace perfbench
