// CompiledModel::run binds its constants by reference, and on a bfp8
// system each weight read as a matmul's B operand is quantized once per
// model. These tests pin that binding against the one it replaced, an
// Executor bound by set_tensor copies: the same output bits and
// ExecutionStats, the same resident bytes and memory-limit fault point,
// and the same results when runs on one model race from 1, 2 or 8
// ThreadPool workers (the first of which build the quantized weights).
//
// VitModel::forward_mixed likewise quantizes its weights once per model
// and PU format: the ResidentWeights tests pin racing first forwards,
// one model alternated between formats, and the resident bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compiler/compile.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "compiler/verify.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "numerics/bfp.hpp"
#include "numerics/format/format_spec.hpp"
#include "transformer/model.hpp"

namespace bfpsim {
namespace {

/// An encoder and a decoder spec (GQA, RoPE, SwiGLU). llm-decode, the
/// 1.2B-parameter decoder, would need ~4.8 GB of fp32 weights to compile.
struct Case {
  const char* spec;
  int tokens;
};

const Case kCases[] = {{"vit-tiny-test", 0}, {"llama-tiny", 8}};

CompiledModel compile_macro(const Graph& g, const AcceleratorSystem& sys) {
  CompileOptions opt;
  opt.macro_kernels = true;
  return compile(g, sys, opt);
}

/// One random tensor per kInput node, in graph order.
std::vector<std::vector<float>> inputs_of(const Graph& g,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> in;
  for (const GraphNode& n : g.nodes()) {
    if (n.op == GraphOp::kInput) {
      in.push_back(rng.normal_vec(n.shape.elements(), 0.0F, 1.0F));
    }
  }
  return in;
}

enum class Binding { kCopy, kShared };

/// Bind `ex` the way CompiledModel::run does — every input, then every
/// constant — either by set_tensor copies or by sharing each constant.
/// The compiler declares its pre-bound values in graph order; it drops
/// unconsumed constants only when registers are reused (> 240 nodes).
/// Throws what the executor throws (a memory-limit fault).
void bind_like_run(Executor& ex, const Graph& g, const CompiledModel& cm,
                   const std::vector<std::vector<float>>& inputs,
                   Binding how) {
  std::vector<bool> consumed(g.size(), false);
  for (const GraphNode& n : g.nodes()) {
    for (const NodeId in : n.inputs) {
      consumed[static_cast<std::size_t>(in)] = true;
    }
  }
  const bool identity = g.size() <= 240;
  std::vector<const GraphNode*> bound;
  for (const GraphNode& n : g.nodes()) {
    if (n.op == GraphOp::kInput ||
        (n.op == GraphOp::kConstant &&
         (identity || consumed[static_cast<std::size_t>(n.id)]))) {
      bound.push_back(&n);
    }
  }
  const VerifyBindings vb = cm.verify_bindings();
  std::vector<const VerifyValue*> pre;
  for (const VerifyValue& v : vb.values) {
    if (v.prebound) pre.push_back(&v);
  }
  ASSERT_EQ(bound.size(), pre.size());
  std::size_t next_input = 0;
  for (std::size_t i = 0; i < bound.size(); ++i) {
    if (bound[i]->op != GraphOp::kInput) continue;
    ASSERT_EQ(pre[i]->shape.elements(), bound[i]->shape.elements());
    ex.set_tensor(pre[i]->reg, bound[i]->shape.rows, bound[i]->shape.cols,
                  inputs[next_input++]);
  }
  for (std::size_t i = 0; i < bound.size(); ++i) {
    const GraphNode& n = *bound[i];
    if (n.op != GraphOp::kConstant) continue;
    ASSERT_EQ(pre[i]->shape.elements(), n.shape.elements());
    if (how == Binding::kCopy) {
      ex.set_tensor(pre[i]->reg, n.shape.rows, n.shape.cols, n.value);
    } else {
      ex.bind(pre[i]->reg, std::make_shared<const RegTensor>(RegTensor{
                               n.shape.rows, n.shape.cols, n.value}));
    }
  }
}

void expect_same_run(const RunResult& want, const RunResult& got,
                     const std::string& where) {
  ASSERT_EQ(want.output.size(), got.output.size()) << where;
  EXPECT_EQ(std::memcmp(want.output.data(), got.output.data(),
                        want.output.size() * sizeof(float)),
            0)
      << where;
  EXPECT_EQ(want.shape.rows, got.shape.rows) << where;
  EXPECT_EQ(want.shape.cols, got.shape.cols) << where;
  EXPECT_EQ(want.stats.device_cycles, got.stats.device_cycles) << where;
  EXPECT_EQ(want.stats.move_cycles, got.stats.move_cycles) << where;
  EXPECT_EQ(want.stats.host_ops, got.stats.host_ops) << where;
  EXPECT_TRUE(want.stats.ops == got.stats.ops) << where;
  EXPECT_EQ(want.stats.instructions, got.stats.instructions) << where;
  EXPECT_EQ(want.stats.reliability.snapshot(),
            got.stats.reliability.snapshot())
      << where;
}

class ResidentConstants : public ::testing::TestWithParam<Case> {};

TEST_P(ResidentConstants, RunMatchesACopyBoundExecutor) {
  const Graph g = build_fused_spec_graph(load_model_spec(GetParam().spec),
                                         GetParam().tokens);
  const AcceleratorSystem sys;
  const CompiledModel cm = compile_macro(g, sys);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<std::vector<float>> in = inputs_of(g, seed);
    const RunResult got = cm.run(in);

    Executor ex(sys);
    bind_like_run(ex, g, cm, in, Binding::kCopy);
    RunResult want;
    want.stats = ex.run(cm.program());
    want.output = ex.tensor(cm.verify_bindings().output_reg).data;
    want.shape = got.shape;
    expect_same_run(want, got, "seed " + std::to_string(seed));
  }
}

TEST_P(ResidentConstants, ConcurrentRunsMatchASerialRun) {
  const Graph g = build_fused_spec_graph(load_model_spec(GetParam().spec),
                                         GetParam().tokens);
  const AcceleratorSystem sys;
  constexpr int kInputs = 3;
  constexpr std::size_t kRuns = 12;
  std::vector<std::vector<std::vector<float>>> in;
  std::vector<RunResult> want;
  {
    const CompiledModel serial = compile_macro(g, sys);
    for (int i = 0; i < kInputs; ++i) {
      in.push_back(inputs_of(g, 100 + static_cast<std::uint64_t>(i)));
      want.push_back(serial.run(in.back()));
    }
  }
  for (const int workers : {1, 2, 8}) {
    ThreadPool pool(workers);
    // A fresh model per pool, so the first runs race to build its
    // quantized weights.
    const CompiledModel cm = compile_macro(g, sys);
    std::vector<RunResult> got(kRuns);
    pool.parallel_for(kRuns, [&](std::size_t i) {
      got[i] = cm.run(in[i % kInputs]);
    });
    for (std::size_t i = 0; i < kRuns; ++i) {
      expect_same_run(want[i % kInputs], got[i],
                      std::to_string(workers) + " workers, run " +
                          std::to_string(i));
    }
  }
}

/// Where a run under memory limit `limit` faults: -1 while binding, the
/// instruction index while executing, or the program size when it never
/// faults. `resident` is the resident bytes at the fault, or the peak.
struct FaultPoint {
  long at = 0;
  std::uint64_t resident = 0;
  bool operator==(const FaultPoint&) const = default;
};

FaultPoint fault_point(const Graph& g, const CompiledModel& cm,
                       const AcceleratorSystem& sys,
                       const std::vector<std::vector<float>>& in,
                       Binding how, std::uint64_t limit) {
  Executor ex(sys);
  ex.set_memory_limit(limit);
  try {
    bind_like_run(ex, g, cm, in, how);
  } catch (const Error&) {
    return {-1, ex.resident_bytes()};
  }
  std::uint64_t peak = ex.resident_bytes();
  const std::vector<Instruction>& insts = cm.program().instructions();
  for (std::size_t i = 0; i < insts.size(); ++i) {
    Program step;
    step.push(insts[i]);
    try {
      ex.run(step);
    } catch (const Error&) {
      return {static_cast<long>(i), ex.resident_bytes()};
    }
    peak = std::max(peak, ex.resident_bytes());
  }
  return {static_cast<long>(insts.size()), peak};
}

TEST_P(ResidentConstants, SharedConstantsKeepResidentBytesAndFaultPoint) {
  const Graph g = build_fused_spec_graph(load_model_spec(GetParam().spec),
                                         GetParam().tokens);
  const AcceleratorSystem sys;
  const CompiledModel cm = compile_macro(g, sys);
  const std::vector<std::vector<float>> in = inputs_of(g, 7);

  std::uint64_t bound_bytes[2] = {0, 0};
  for (const Binding how : {Binding::kCopy, Binding::kShared}) {
    Executor ex(sys);
    bind_like_run(ex, g, cm, in, how);
    bound_bytes[static_cast<int>(how)] = ex.resident_bytes();
  }
  EXPECT_EQ(bound_bytes[0], bound_bytes[1]);

  const FaultPoint free_run =
      fault_point(g, cm, sys, in, Binding::kCopy, 0);
  ASSERT_EQ(free_run.at, static_cast<long>(cm.program().size()));
  EXPECT_EQ(free_run, fault_point(g, cm, sys, in, Binding::kShared, 0));
  // The verifier's arena accounting mirrors the executor's byte for byte.
  EXPECT_EQ(free_run.resident,
            verify_program(cm.program(), cm.verify_bindings(), sys)
                .peak_resident_bytes);

  const std::uint64_t peak = free_run.resident;
  for (const std::uint64_t limit :
       {peak, peak - 1, (peak + bound_bytes[0]) / 2, bound_bytes[0] - 1,
        bound_bytes[0] / 2}) {
    const FaultPoint copy = fault_point(g, cm, sys, in, Binding::kCopy, limit);
    const FaultPoint shared =
        fault_point(g, cm, sys, in, Binding::kShared, limit);
    EXPECT_EQ(copy, shared) << "limit " << limit;
  }
  EXPECT_EQ(fault_point(g, cm, sys, in, Binding::kShared, peak).at,
            static_cast<long>(cm.program().size()));
  EXPECT_LT(fault_point(g, cm, sys, in, Binding::kShared, peak - 1).at,
            static_cast<long>(cm.program().size()));
  EXPECT_LT(
      fault_point(g, cm, sys, in, Binding::kShared, bound_bytes[0] - 1).at,
      0);
}

INSTANTIATE_TEST_SUITE_P(Specs, ResidentConstants, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           std::string name = info.param.spec;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ExecutorBind, QuantizedOperandFollowsTheValueNotTheRegister) {
  const AcceleratorSystem sys;
  const PuConfig& pu = sys.config().pu;
  constexpr int m = 8;
  constexpr int k = 16;
  constexpr int n = 24;
  Rng rng(5);
  const std::vector<float> a = rng.normal_vec(m * k, 0.0F, 1.0F);
  const std::vector<float> w = rng.normal_vec(k * n, 0.0F, 1.0F);
  const std::vector<float> u = rng.normal_vec(k * n, 0.0F, 1.0F);

  Executor ex(sys);
  ex.set_tensor(0, m, k, a);
  // The quantized operand of a different matrix `u`, so the result shows
  // which operand the matmul read.
  ex.bind(1, std::make_shared<const RegTensor>(RegTensor{k, n, w}),
          std::make_shared<const BfpMatrix>(quantize_matrix(
              u, k, n, pu.bfp_format(), pu.quant_round)));
  EXPECT_EQ(ex.resident_bytes(), sizeof(float) * (m * k + k * n));
  ProgramBuilder first;
  first.bfp_matmul(2, 0, 1, m, k, n);
  const ExecutionStats s = ex.run(first.build());
  const GemmRun via_u = sys.gemm(a, m, k, u, n);
  EXPECT_EQ(ex.tensor(2).data, via_u.c);
  EXPECT_EQ(s.device_cycles, via_u.compute_cycles);

  // Overwriting register 1 drops its quantized operand with its value.
  ProgramBuilder second;
  second.vec_add(1, 1, 1).bfp_matmul(3, 0, 1, m, k, n);
  ex.run(second.build());
  EXPECT_EQ(ex.tensor(3).data, sys.gemm(a, m, k, ex.tensor(1).data, n).c);
}

// ---- VitModel::forward_mixed's resident bfp8 weights ----

VitModel tiny_model() {
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  return VitModel(random_weights(vit_config_of(spec), spec.seed));
}

struct Forward {
  std::vector<float> features;
  ForwardStats stats;
};

Forward forward_of(const VitModel& model, const std::vector<float>& x,
                   const AcceleratorSystem& sys) {
  Forward f;
  f.features = model.forward_mixed(x, sys, &f.stats);
  return f;
}

void expect_same_forward(const Forward& want, const Forward& got,
                         const std::string& where) {
  ASSERT_EQ(want.features.size(), got.features.size()) << where;
  EXPECT_EQ(std::memcmp(want.features.data(), got.features.data(),
                        want.features.size() * sizeof(float)),
            0)
      << where;
  EXPECT_TRUE(want.stats == got.stats) << where;
}

TEST(ResidentWeights, FreshModelForwardsFromAPoolMatchASerialRun) {
  const AcceleratorSystem sys;
  const VitConfig cfg = tiny_model().config();
  constexpr int kInputs = 3;
  constexpr std::size_t kRuns = 12;
  std::vector<std::vector<float>> in;
  std::vector<Forward> want;
  {
    const VitModel serial = tiny_model();
    for (int i = 0; i < kInputs; ++i) {
      in.push_back(random_embeddings(cfg, 40 + static_cast<std::uint64_t>(i)));
      want.push_back(forward_of(serial, in.back(), sys));
    }
  }
  for (const int workers : {1, 2, 8}) {
    ThreadPool pool(workers);
    // A fresh model per pool, so the first forwards race to quantize its
    // weights.
    const VitModel model = tiny_model();
    std::vector<Forward> got(kRuns);
    pool.parallel_for(kRuns, [&](std::size_t i) {
      got[i] = forward_of(model, in[i % kInputs], sys);
    });
    for (std::size_t i = 0; i < kRuns; ++i) {
      expect_same_forward(want[i % kInputs], got[i],
                          std::to_string(workers) + " workers, forward " +
                              std::to_string(i));
    }
  }
}

TEST(ResidentWeights, AlternatingFormatsMatchAFreshModelPerFormat) {
  // Two bfp8-mode systems whose PUs quantize differently: the paper's
  // 8-bit mantissas and a 6-bit-mantissa block format; and the 8-bit
  // format under truncation.
  SystemConfig narrow;
  narrow.pu.format = FormatSpec::bfp_block(8, 6, 64);
  SystemConfig truncating;
  truncating.pu.quant_round = RoundMode::kTruncate;
  const std::vector<AcceleratorSystem> systems{
      AcceleratorSystem{}, AcceleratorSystem(narrow),
      AcceleratorSystem(truncating)};
  ASSERT_NE(systems[0].config().pu.bfp_format(),
            systems[1].config().pu.bfp_format());

  const VitModel shared = tiny_model();
  const std::vector<float> x = random_embeddings(shared.config(), 9);
  std::vector<Forward> want;
  for (const AcceleratorSystem& sys : systems) {
    want.push_back(forward_of(tiny_model(), x, sys));
  }
  EXPECT_NE(want[0].features, want[1].features);
  EXPECT_NE(want[0].features, want[2].features);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t s = 0; s < systems.size(); ++s) {
      expect_same_forward(want[s], forward_of(shared, x, systems[s]),
                          "round " + std::to_string(round) + ", system " +
                              std::to_string(s));
    }
  }
  // One quantized set per (format, rounding), reused by later forwards.
  for (const AcceleratorSystem& sys : systems) {
    EXPECT_EQ(shared.resident_weights(sys.config().pu).data(),
              shared.resident_weights(sys.config().pu).data());
  }
  EXPECT_NE(shared.resident_weights(systems[0].config().pu).data(),
            shared.resident_weights(systems[1].config().pu).data());
}

void expect_same_matrix(const BfpMatrix& want, const BfpMatrix& got,
                        const std::string& where) {
  ASSERT_EQ(want.fmt, got.fmt) << where;
  ASSERT_EQ(want.rows, got.rows) << where;
  ASSERT_EQ(want.cols, got.cols) << where;
  ASSERT_EQ(want.blocks.size(), got.blocks.size()) << where;
  for (std::size_t i = 0; i < want.blocks.size(); ++i) {
    const std::string at = where + " block " + std::to_string(i);
    ASSERT_EQ(want.blocks[i].fmt, got.blocks[i].fmt) << at;
    ASSERT_EQ(want.blocks[i].expb, got.blocks[i].expb) << at;
    ASSERT_EQ(want.blocks[i].man, got.blocks[i].man) << at;
  }
}

TEST(ResidentWeights, ResidentCopyIsQuantizeMatrixOfEachWeight) {
  const VitModel model = tiny_model();
  const VitConfig& cfg = model.config();
  const int d = cfg.embed_dim;
  const int m = cfg.mlp_hidden();
  SystemConfig narrow;
  narrow.pu.format = FormatSpec::bfp_block(8, 6, 64);
  narrow.pu.quant_round = RoundMode::kTruncate;
  for (const PuConfig& pu : {PuConfig{}, narrow.pu}) {
    const std::span<const BfpBlockWeights> resident =
        model.resident_weights(pu);
    ASSERT_EQ(resident.size(), model.weights().blocks.size());
    for (std::size_t b = 0; b < resident.size(); ++b) {
      const BlockWeights& w = model.weights().blocks[b];
      auto quantized = [&](const std::vector<float>& v, int k, int n) {
        return quantize_matrix(v, k, n, pu.bfp_format(), pu.quant_round);
      };
      const std::string where = "block " + std::to_string(b);
      expect_same_matrix(quantized(w.qkv_w, d, 3 * d), resident[b].qkv_w,
                         where + " qkv_w");
      expect_same_matrix(quantized(w.proj_w, d, d), resident[b].proj_w,
                         where + " proj_w");
      expect_same_matrix(quantized(w.fc1_w, d, m), resident[b].fc1_w,
                         where + " fc1_w");
      expect_same_matrix(quantized(w.fc2_w, m, d), resident[b].fc2_w,
                         where + " fc2_w");
    }
  }
}

TEST(ExecutorBind, PreQuantizedOperandNeedsABfp8System) {
  SystemConfig cfg;
  cfg.pu.mode = "bf16";
  const AcceleratorSystem sys(cfg);
  const std::vector<float> a(64, 1.0F);
  const BfpMatrix b = quantize_matrix(a, 8, 8, cfg.pu.bfp_format());
  EXPECT_THROW(sys.gemm(a, 8, 8, b, 8), Error);
}

}  // namespace
}  // namespace bfpsim
