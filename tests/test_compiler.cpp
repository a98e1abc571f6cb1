// Tests for the graph IR and the graph -> ISA compiler: shape validation,
// lowering of every op kind, end-to-end numerics of a compiled attention
// block, and the static schedule report.
#include "compiler/compile.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "numerics/nonlinear.hpp"
#include "transformer/model.hpp"

namespace bfpsim {
namespace {

class CompilerTest : public ::testing::Test {
 protected:
  AcceleratorSystem system_;
  Rng rng_{201};
};

TEST_F(CompilerTest, ShapeValidationAtBuildTime) {
  Graph g;
  const NodeId a = g.input({4, 8});
  const NodeId b = g.input({4, 8});
  EXPECT_THROW(g.matmul(a, b), Error);  // 8 != 4
  EXPECT_NO_THROW(g.add(a, b));
  const NodeId w = g.constant(std::vector<float>(8 * 3, 0.0F), {8, 3});
  EXPECT_NO_THROW(g.matmul(a, w));
  // bias must be 1 x cols
  const NodeId bad_bias = g.constant(std::vector<float>(4, 0.0F), {4, 1});
  EXPECT_THROW(g.bias_add(a, bad_bias), Error);
}

TEST_F(CompilerTest, ConstantPayloadMustMatchShape) {
  Graph g;
  EXPECT_THROW(g.constant(std::vector<float>(5, 0.0F), {2, 3}), Error);
}

TEST_F(CompilerTest, InputsMustPrecede) {
  Graph g;
  const NodeId a = g.input({2, 2});
  (void)a;
  EXPECT_THROW(g.node(5), Error);
}

TEST_F(CompilerTest, LinearChainNumerics) {
  // y = gelu(x W + b)
  const int m = 12;
  const int k = 16;
  const int n = 24;
  const auto x = rng_.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto w = rng_.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 0.2F);
  const auto b = rng_.normal_vec(static_cast<std::size_t>(n), 0.0F, 0.1F);

  Graph g;
  const NodeId xi = g.input({m, k}, "x");
  const NodeId wi = g.constant(w, {k, n}, "W");
  const NodeId bi = g.constant(b, {1, n}, "b");
  const NodeId mm = g.matmul(xi, wi);
  const NodeId ba = g.bias_add(mm, bi);
  const NodeId out = g.gelu(ba);
  g.set_output(out);

  const CompiledModel model = compile(g, system_);
  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = model.run(inputs);
  ASSERT_EQ(r.shape.rows, m);
  ASSERT_EQ(r.shape.cols, n);

  // Reference: fp32 matmul + bias + exact gelu.
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = b[static_cast<std::size_t>(j)];
      for (int t = 0; t < k; ++t) {
        acc += static_cast<double>(x[static_cast<std::size_t>(i) * k + t]) *
               w[static_cast<std::size_t>(t) * n + j];
      }
      ref[static_cast<std::size_t>(i) * n + j] =
          gelu_reference(static_cast<float>(acc));
    }
  }
  const ErrorStats s = compute_error_stats(r.output, ref);
  EXPECT_GT(s.snr_db, 25.0);  // bfp8 matmul noise dominates
  EXPECT_GT(r.stats.device_cycles, 0u);
}

TEST_F(CompilerTest, LayerNormNodeMatchesReference) {
  const int m = 6;
  const int n = 32;
  const auto x = rng_.normal_vec(static_cast<std::size_t>(m) * n, 1.0F, 2.0F);
  std::vector<float> gamma(static_cast<std::size_t>(n));
  std::vector<float> beta(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    gamma[static_cast<std::size_t>(j)] = 1.0F + 0.01F * static_cast<float>(j);
    beta[static_cast<std::size_t>(j)] = 0.1F * static_cast<float>(j % 3);
  }
  Graph g;
  const NodeId xi = g.input({m, n});
  const NodeId gi = g.constant(gamma, {1, n});
  const NodeId bi = g.constant(beta, {1, n});
  g.set_output(g.layernorm(xi, gi, bi));

  const CompiledModel model = compile(g, system_);
  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = model.run(inputs);
  const auto ref = layernorm_reference(x, m, n, gamma, beta);
  EXPECT_LT(compute_error_stats(r.output, ref).rel_rmse, 1e-3);
}

TEST_F(CompilerTest, AttentionBlockEndToEnd) {
  const int t = 16;
  const int d = 16;
  const float scale = 1.0F / std::sqrt(static_cast<float>(d));
  const auto x = rng_.normal_vec(static_cast<std::size_t>(t) * d, 0.0F, 1.0F);
  const auto wq = rng_.normal_vec(static_cast<std::size_t>(d) * d, 0.0F, 0.2F);
  const auto wk = rng_.normal_vec(static_cast<std::size_t>(d) * d, 0.0F, 0.2F);
  const auto wv = rng_.normal_vec(static_cast<std::size_t>(d) * d, 0.0F, 0.2F);

  Graph g;
  const NodeId xi = g.input({t, d}, "x");
  const NodeId q = g.matmul(xi, g.constant(wq, {d, d}, "Wq"), "Q");
  const NodeId k = g.matmul(xi, g.constant(wk, {d, d}, "Wk"), "K");
  const NodeId v = g.matmul(xi, g.constant(wv, {d, d}, "Wv"), "V");
  const NodeId kt = g.transpose(k, "K^T");
  const NodeId scores = g.scale(g.matmul(q, kt, "QK^T"), scale, "scaled");
  const NodeId probs = g.softmax(scores, "attn");
  const NodeId ctx = g.matmul(probs, v, "ctx");
  g.set_output(ctx);

  const CompiledModel model = compile(g, system_);
  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = model.run(inputs);

  // fp32 reference.
  auto mm = [](const std::vector<float>& a, int m, int kk,
               const std::vector<float>& b, int n) {
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int s = 0; s < kk; ++s) {
          acc += static_cast<double>(
                     a[static_cast<std::size_t>(i) * kk + s]) *
                 b[static_cast<std::size_t>(s) * n + j];
        }
        c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
      }
    }
    return c;
  };
  const auto qr = mm(x, t, d, wq, d);
  const auto kr = mm(x, t, d, wk, d);
  const auto vr = mm(x, t, d, wv, d);
  std::vector<float> ktr(kr.size());
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < d; ++j) {
      ktr[static_cast<std::size_t>(j) * t + i] =
          kr[static_cast<std::size_t>(i) * d + j];
    }
  }
  auto sr = mm(qr, t, d, ktr, t);
  for (auto& s : sr) s *= scale;
  const auto pr = softmax_reference(sr, t, t);
  const auto ref = mm(pr, t, t, vr, d);

  const ErrorStats s = compute_error_stats(r.output, ref);
  EXPECT_GT(s.snr_db, 20.0);
  EXPECT_GT(cosine_similarity(r.output, ref), 0.99);

  // Schedule sanity: matmuls on the bfp8 mode, softmax on the vector mode.
  bool saw_matmul = false;
  bool saw_softmax = false;
  for (const NodePlan& p : model.plan()) {
    if (p.op == GraphOp::kMatMul) {
      saw_matmul = true;
      EXPECT_EQ(p.mode, "bfp8-matmul");
      EXPECT_GT(p.cycles, 0u);
    }
    if (p.op == GraphOp::kSoftmax) saw_softmax = true;
  }
  EXPECT_TRUE(saw_matmul);
  EXPECT_TRUE(saw_softmax);
  EXPECT_FALSE(model.report().empty());
  EXPECT_EQ(model.price().device_cycles, r.stats.device_cycles);
}

TEST_F(CompilerTest, SiluAndMulLowering) {
  const int m = 4;
  const int n = 16;
  const auto x = rng_.normal_vec(static_cast<std::size_t>(m) * n, 0.0F, 1.5F);
  Graph g;
  const NodeId xi = g.input({m, n});
  const NodeId s = g.silu(xi);
  g.set_output(g.mul(s, xi));  // x * silu(x)
  const CompiledModel model = compile(g, system_);
  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = model.run(inputs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double sig = 1.0 / (1.0 + std::exp(-static_cast<double>(x[i])));
    EXPECT_NEAR(r.output[i], x[i] * x[i] * sig, 2.5e-2F);
  }
}

TEST_F(CompilerTest, RunValidatesInputs) {
  Graph g;
  const NodeId xi = g.input({2, 2});
  g.set_output(g.scale(xi, 2.0F));
  const CompiledModel model = compile(g, system_);
  const std::vector<std::vector<float>> none = {};
  EXPECT_THROW(model.run(none), Error);
  const std::vector<std::vector<float>> wrong = {{1.0F, 2.0F}};
  EXPECT_THROW(model.run(wrong), Error);
}

TEST_F(CompilerTest, SliceAndConcatLowering) {
  const int m = 4;
  const int n = 12;
  const auto x = rng_.normal_vec(static_cast<std::size_t>(m) * n, 0.0F, 1.0F);
  Graph g;
  const NodeId xi = g.input({m, n});
  const NodeId left = g.slice_cols(xi, 0, 5);
  const NodeId right = g.slice_cols(xi, 5, 7);
  g.set_output(g.concat_cols(left, right));  // identity by construction
  const CompiledModel model = compile(g, system_);
  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = model.run(inputs);
  ASSERT_EQ(r.output.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(r.output[i], x[i]);
  // Out-of-range slices are rejected at graph build time.
  Graph bad;
  const NodeId bi = bad.input({m, n});
  EXPECT_THROW(bad.slice_cols(bi, 8, 8), Error);
}

TEST_F(CompilerTest, FullEncoderMatchesVitModel) {
  // The whole-model path through the micro-kernel (--no-fuse) lowering:
  // the unfused spec graph + compile vs the direct VitModel mixed forward
  // on the spec's weights. Both run the same bfp8 GEMMs and fp32 kernels,
  // so the outputs should agree closely (they differ only in the order of
  // per-head GEMM quantization: the graph slices LN-ed activations before
  // quantizing per head, exactly like the model path).
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  const VitConfig cfg = vit_config_of(spec);
  const VitModel model(random_weights(cfg, spec.seed));
  const CompiledModel compiled = compile(build_spec_graph(spec), system_);
  const auto x = random_embeddings(cfg, 78);

  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = compiled.run(inputs);
  const auto direct = model.forward_mixed(x, system_);
  const auto ref = model.forward_reference(x);
  ASSERT_EQ(r.output.size(), direct.size());
  // Compiled-vs-direct: same numerics family; tiny differences allowed
  // (bias-add broadcast path vs fused add ordering).
  EXPECT_GT(cosine_similarity(r.output, direct), 0.9999);
  // And both track the fp32 reference.
  EXPECT_GT(compute_error_stats(r.output, ref).snr_db, 20.0);
  // The schedule covers every block's matmuls.
  std::size_t matmuls = 0;
  for (const NodePlan& p : compiled.plan()) {
    if (p.op == GraphOp::kMatMul) ++matmuls;
  }
  // Per block: q + k + v + (qkT + ctx) * heads + proj + fc1 + fc2.
  EXPECT_EQ(matmuls, static_cast<std::size_t>(cfg.depth) *
                         (6 + 2 * static_cast<std::size_t>(cfg.num_heads)));
}

TEST_F(CompilerTest, ProgramSerializes) {
  Graph g;
  const NodeId xi = g.input({4, 4});
  g.set_output(g.gelu(xi));
  const CompiledModel model = compile(g, system_);
  const Program p = Program::deserialize(model.program().serialize());
  EXPECT_EQ(p.size(), model.program().size());
}

}  // namespace
}  // namespace bfpsim
