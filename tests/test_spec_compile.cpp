// Graph-compiler frontend end-to-end pins:
//   * a degenerate encoder spec compiles to a program whose execution is
//     byte-identical (outputs) and cycle-identical (device minus DMA
//     movement) to the legacy VitModel::forward_mixed path,
//   * the degenerate decoder spec's analytic per-token costs equal
//     analyze_decode's exactly,
//   * compilation is deterministic across reruns and thread counts,
//   * the static price of every compiled program equals what the executor
//     charges, node by node,
//   * the multi-card price `bfpsim compile --cards` reports is the cluster
//     executor's charge, and
//   * the seeded weight materialization is byte-pinned (one initializer
//     shared by random_weights, checkpointing, and the spec frontend).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "common/thread_pool.hpp"
#include "compiler/compile.hpp"
#include "compiler/fuse.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "numerics/format/registry.hpp"
#include "runtime/decode_serve.hpp"
#include "transformer/checkpoint.hpp"
#include "transformer/decoder.hpp"
#include "transformer/model.hpp"

namespace bfpsim {
namespace {

std::uint64_t fnv1a_floats(const std::vector<float>& v,
                           std::uint64_t h = 14695981039346656037ULL) {
  for (const float f : v) {
    unsigned char b[4];
    std::memcpy(b, &f, sizeof b);
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::uint64_t fnv1a_bytes(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SpecCompile, VitTinyMatchesLegacyBitAndCycleExact) {
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  const VitConfig cfg = vit_config_of(spec);
  EXPECT_EQ(cfg.embed_dim, vit_test_tiny().embed_dim);
  EXPECT_EQ(cfg.depth, vit_test_tiny().depth);
  EXPECT_EQ(cfg.num_heads, vit_test_tiny().num_heads);
  EXPECT_EQ(cfg.mlp_hidden(), vit_test_tiny().mlp_hidden());

  const AcceleratorSystem sys;
  const std::vector<float> x = random_embeddings(cfg, 1);

  const VitModel model(random_weights(cfg, spec.seed));
  ForwardStats fs;
  const std::vector<float> ref = model.forward_mixed(x, sys, &fs);

  CompileOptions opt;
  opt.macro_kernels = true;
  const CompiledModel cm = compile(build_fused_spec_graph(spec), sys, opt);
  const std::vector<std::vector<float>> inputs{x};
  const RunResult r = cm.run(inputs);

  ASSERT_EQ(r.output.size(), ref.size());
  EXPECT_EQ(std::memcmp(r.output.data(), ref.data(),
                        ref.size() * sizeof(float)),
            0)
      << "compiled spec output diverged from forward_mixed";
  // DMA data movement (slices/transposes/concats the legacy path does on
  // the host) is tracked separately; compute cycles must pin exactly.
  EXPECT_EQ(r.stats.device_cycles - r.stats.move_cycles, fs.total_cycles());
}

TEST(SpecCompile, DeterministicAcrossRerunsAndThreadCounts) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  const AcceleratorSystem sys;
  CompileOptions opt;
  opt.macro_kernels = true;

  const CompiledModel a = compile(build_fused_spec_graph(spec, 8), sys, opt);
  const std::vector<std::uint8_t> image = a.program().serialize();

  // Recompile under live worker pools of different sizes: the emitted
  // program must not depend on ambient threading.
  for (const int workers : {1, 4}) {
    ThreadPool pool(workers);
    const CompiledModel b =
        compile(build_fused_spec_graph(spec, 8), sys, opt);
    EXPECT_EQ(b.program().serialize(), image)
        << "program bytes changed with " << workers << " pool workers";
  }

  std::vector<float> x(8 * static_cast<std::size_t>(spec.d_model));
  Rng rng(3);
  for (float& v : x) v = rng.normal(0.0F, 1.0F);
  const std::vector<std::vector<float>> inputs{x};
  const RunResult r1 = a.run(inputs);
  const RunResult r2 = a.run(inputs);
  ASSERT_EQ(r1.output.size(), r2.output.size());
  EXPECT_EQ(std::memcmp(r1.output.data(), r2.output.data(),
                        r1.output.size() * sizeof(float)),
            0);
}

TEST(SpecCompile, LlamaTinyGqaRopeSwigluRunsEndToEnd) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  ASSERT_EQ(spec.heads, 4);
  ASSERT_EQ(spec.kv_heads, 2);
  const AcceleratorSystem sys;

  FusionStats fstats;
  const Graph g = build_fused_spec_graph(spec, 4, &fstats);
  // SwiGLU gate/up share an input, so each block contributes a merge.
  EXPECT_GE(fstats.qkv_merges, spec.depth);
  CompileOptions opt;
  opt.macro_kernels = true;
  const CompiledModel cm = compile(g, sys, opt);

  std::vector<float> x(4 * static_cast<std::size_t>(spec.d_model));
  Rng rng(123);
  for (float& v : x) v = rng.normal(0.0F, 1.0F);
  const RunResult r = cm.run(std::vector<std::vector<float>>{x});
  EXPECT_EQ(r.shape.rows, 4);
  EXPECT_EQ(r.shape.cols, spec.vocab);
  for (const float v : r.output) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(r.stats.device_cycles, 0U);
}

TEST(SpecCompile, DeitSmallSpecCompilesWithFusions) {
  const ModelSpec spec = load_model_spec("deit-small");
  const VitConfig cfg = vit_config_of(spec);
  EXPECT_EQ(cfg.embed_dim, deit_small().embed_dim);
  EXPECT_EQ(cfg.depth, deit_small().depth);

  FusionStats fstats;
  const Graph g = build_fused_spec_graph(spec, 0, &fstats);
  EXPECT_EQ(fstats.qkv_merges, spec.depth);
  EXPECT_EQ(fstats.bias_act_folds, spec.depth);
  EXPECT_EQ(fstats.residual_absorptions, 2 * spec.depth);

  const AcceleratorSystem sys;
  CompileOptions opt;
  opt.macro_kernels = true;
  const CompiledModel cm = compile(g, sys, opt);
  EXPECT_GT(cm.program().size(), 0U);
  EXPECT_GT(cm.price().device_cycles, 0U);
}

/// Run `cm` on seeded random inputs and check its static price against
/// the executor's stats field for field, and the per-node plan against
/// the priced total.
void expect_priced_exactly(const CompiledModel& cm,
                           const AcceleratorSystem& sys,
                           const std::string& what) {
  std::vector<std::vector<float>> inputs;
  Rng rng(11);
  for (const NodePlan& p : cm.plan()) {
    if (p.op != GraphOp::kInput) continue;
    inputs.push_back(rng.normal_vec(p.shape.elements(), 0.0F, 1.0F));
  }
  const ExecutionStats run = cm.run(inputs).stats;
  const ExecutionStats price =
      price_program(cm.program(), cm.verify_bindings(), sys);
  EXPECT_EQ(price.device_cycles, run.device_cycles) << what;
  EXPECT_EQ(price.move_cycles, run.move_cycles) << what;
  EXPECT_EQ(price.host_ops, run.host_ops) << what;
  EXPECT_EQ(price.ops, run.ops) << what;
  EXPECT_EQ(price.instructions, run.instructions) << what;
  EXPECT_EQ(cm.price().device_cycles, price.device_cycles) << what;
  std::uint64_t nodes = 0;
  for (const NodePlan& p : cm.plan()) nodes += p.cycles;
  EXPECT_EQ(nodes, price.device_cycles) << what;
}

TEST(ProgramPrice, EqualsExecutorInEveryModeAndLowering) {
  for (const char* name : {"vit-tiny-test", "llama-tiny"}) {
    const ModelSpec spec = load_model_spec(name);
    const int tokens = spec.family == SpecFamily::kDecoder ? 8 : 0;
    for (const NumericMode& mode : numeric_modes()) {
      SystemConfig cfg;
      cfg.pu.mode = mode.name;
      cfg.pu.format = mode.spec;
      const AcceleratorSystem sys(cfg);
      for (const bool fuse : {true, false}) {
        CompileOptions opt;
        opt.macro_kernels = fuse;
        const CompiledModel cm =
            compile(fuse ? build_fused_spec_graph(spec, tokens)
                         : build_spec_graph(spec, tokens),
                    sys, opt);
        expect_priced_exactly(
            cm, sys,
            std::string(name) + " " + mode.name + (fuse ? "" : " no-fuse"));
      }
    }
  }
}

TEST(ProgramPrice, DeitSmallEqualsExecutorFusedAndUnfused) {
  const ModelSpec spec = load_model_spec("deit-small");
  const AcceleratorSystem sys;
  for (const bool fuse : {true, false}) {
    CompileOptions opt;
    opt.macro_kernels = fuse;
    const CompiledModel cm = compile(
        fuse ? build_fused_spec_graph(spec) : build_spec_graph(spec), sys,
        opt);
    expect_priced_exactly(cm, sys, fuse ? "fused" : "no-fuse");
    // The fused program's cycles, as `bfpsim compile deit-small` prints.
    if (fuse) {
      EXPECT_EQ(cm.price().device_cycles, 15149280U);
    }
  }
}

TEST(SpecCompile, UnfusedProgramLeavesUnreadRegisterFieldsZero) {
  // The --no-fuse lowering inlines the softmax/GELU/SiLU micro-kernels;
  // only the registers an instruction reads are remapped onto the node's,
  // so every register field past operands(inst).count stays 0.
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  const AcceleratorSystem sys;
  CompileOptions opt;
  opt.macro_kernels = false;
  const CompiledModel cm = compile(build_spec_graph(spec), sys, opt);
  const auto& prog = cm.program().instructions();
  ASSERT_FALSE(prog.empty());
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    const Instruction& inst = prog[pc];
    const int reads = operands(inst).count;
    const std::string at = "pc " + std::to_string(pc) + " opcode " +
                           std::to_string(static_cast<int>(inst.op));
    if (reads < 1) {
      EXPECT_EQ(inst.src_a, 0) << at;
    }
    if (reads < 2) {
      EXPECT_EQ(inst.src_b, 0) << at;
    }
    if (reads < 3) {
      EXPECT_EQ(inst.src_c(), 0) << at;
    }
  }
}

TEST(SpecCompile, SoftermaxSetsTheSplitExpBitOnEveryExp) {
  // CompileOptions::softermax is the one switch for the split exp: on
  // softmax.macro when fused, on the micro-kernel's vec.exp under
  // --no-fuse.
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  const AcceleratorSystem sys;
  for (const bool fuse : {true, false}) {
    for (const bool softermax : {false, true}) {
      const CompiledModel cm =
          compile(fuse ? build_fused_spec_graph(spec) : build_spec_graph(spec),
                  sys, {.macro_kernels = fuse, .softermax = softermax});
      int exps = 0;
      for (const Instruction& inst : cm.program().instructions()) {
        if (inst.op != Opcode::kSoftmaxM && inst.op != Opcode::kVecExp) {
          continue;
        }
        ++exps;
        EXPECT_EQ((inst.flags & 1) != 0, softermax)
            << opcode_name(inst.op) << (fuse ? "" : " no-fuse");
      }
      EXPECT_EQ(exps, spec.depth * spec.heads);
    }
  }
}

TEST(SpecDecode, LlmDecodeDegenerateParityWithAnalyzeDecode) {
  const ModelSpec spec = load_model_spec("llm-decode");
  ASSERT_EQ(spec.kv_heads, spec.heads);  // degenerate: plain MHA
  ASSERT_EQ(spec.activation, SpecActivation::kGelu);
  const AcceleratorSystem sys;

  const DecoderConfig legacy = decoder_config_of(spec);
  const DecodeAnalysis ref = analyze_decode(legacy, sys, 8.0);
  const SpecDecodeCosts c = spec_decode_costs(spec, sys, spec.context);

  EXPECT_EQ(c.params, legacy.total_params());
  EXPECT_EQ(c.compute_cycles, ref.compute_cycles);
  EXPECT_EQ(c.bandwidth_cycles, ref.bandwidth_cycles);
  EXPECT_EQ(c.cycles_per_token, ref.cycles_per_token);
  EXPECT_EQ(c.bandwidth_bound, ref.bandwidth_bound);
  EXPECT_DOUBLE_EQ(c.weight_bytes_bfp8, ref.weight_bytes_bfp8);
  EXPECT_DOUBLE_EQ(c.kv_bytes, ref.kv_bytes);
}

TEST(SpecDecode, GqaShrinksKvStreamAndQkvGemm) {
  const ModelSpec gqa = load_model_spec("llama-tiny");
  ModelSpec mha = gqa;
  mha.kv_heads = mha.heads;
  const AcceleratorSystem sys;
  const SpecDecodeCosts a = spec_decode_costs(gqa, sys, gqa.context);
  const SpecDecodeCosts b = spec_decode_costs(mha, sys, mha.context);
  EXPECT_LT(a.kv_bytes, b.kv_bytes);
  EXPECT_LT(a.params, b.params);
  EXPECT_LE(a.compute_cycles, b.compute_cycles);
}

// `bfpsim compile --cards` prices each strategy with probe_stream, the
// probe `bfpsim cluster` runs: its per-request cycles are
// ClusterExecutor::forward's charge, and a strategy partition_model
// rejects is reported infeasible, never priced.
TEST(CardsPrice, ProbeIsTheClusterExecutorCharge) {
  struct Case {
    const char* spec;
    int cards;
    std::uint64_t pipeline;  ///< 0: partition_model rejects it
    std::uint64_t tensor;
  };
  for (const Case& c : {Case{"vit-tiny-test", 2, 30376, 27264},
                        Case{"deit-small", 4, 14628348, 0}}) {
    const ModelSpec spec = load_model_spec(c.spec);
    const VitConfig cfg = vit_config_of(spec);
    const VitWeights w = random_weights(cfg, spec.seed);
    const ClusterTopology topo =
        ClusterTopology::ring(c.cards, LinkConfig{}, SystemConfig{});
    for (const auto& [strategy, want] :
         {std::pair{PartitionStrategy::kPipeline, c.pipeline},
          std::pair{PartitionStrategy::kTensor, c.tensor}}) {
      SCOPED_TRACE(std::string(c.spec) + " " + to_string(strategy));
      const bool feasible =
          partition_infeasibility(cfg, strategy, c.cards).empty();
      ASSERT_EQ(feasible, want != 0);
      if (!feasible) {
        EXPECT_THROW((void)ClusterExecutor(w, topo, strategy), ShapeError);
        continue;
      }
      const ClusterExecutor exec(w, topo, strategy);
      ClusterStats stats;
      (void)exec.forward(random_embeddings(cfg, 1), &stats);
      EXPECT_EQ(stats.total_cycles(), want);
      EXPECT_EQ(probe_stream(w, topo, strategy, 1).request_cycles,
                stats.total_cycles());
    }
  }
}

// One seeded initializer feeds random_weights, the checkpoint codec, and
// the spec frontend; these pins catch any re-divergence of the three.
TEST(WeightBytePin, SeededMaterializationIsByteStable) {
  VitWeights tiny = random_weights(vit_test_tiny(), 42);
  std::uint64_t h = 14695981039346656037ULL;
  for (const WeightTensor& t : weight_schema(tiny)) {
    h = fnv1a_floats(*t.data, h);
  }
  EXPECT_EQ(h, 0xfdc3ab5807d19b30ULL);

  std::ostringstream os;
  save_weights(os, tiny);
  const std::string stream = os.str();
  EXPECT_EQ(stream.size(), 403132U);
  EXPECT_EQ(fnv1a_bytes(stream), 0x20fae8a898da689cULL);

  VitWeights small = random_weights(deit_small(), 42);
  std::uint64_t h2 = 14695981039346656037ULL;
  for (const WeightTensor& t : weight_schema(small)) {
    h2 = fnv1a_floats(*t.data, h2);
  }
  EXPECT_EQ(h2, 0x6d7bc75ba99f8249ULL);
}

TEST(WeightBytePin, CheckpointRoundTripsThroughTheSchema) {
  const VitWeights w = random_weights(vit_test_tiny(), 7);
  std::ostringstream os;
  save_weights(os, w);
  std::istringstream is(os.str());
  VitWeights back = load_weights(is);
  VitWeights mut = w;  // schema takes a mutable ref; contents untouched
  const auto ta = weight_schema(mut);
  const auto tb = weight_schema(back);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(*ta[i].data, *tb[i].data) << ta[i].name;
  }
}

}  // namespace
}  // namespace bfpsim
