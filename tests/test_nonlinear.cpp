// Tests for the non-linear reference math and the vector-unit-shaped
// approximations (exp/tanh/GELU/softmax/LayerNorm) and their op counters.
#include "numerics/nonlinear.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace bfpsim {
namespace {

TEST(SoftmaxReference, RowsSumToOneAndMatchClosedForm) {
  Rng rng(301);
  const int rows = 10;
  const int cols = 33;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, 0.0F, 3.0F);
  const auto s = softmax_reference(x, rows, cols);
  for (int r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      const float v = s[static_cast<std::size_t>(r) * cols + c];
      EXPECT_GE(v, 0.0F);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  // Invariance to a per-row shift.
  auto shifted = x;
  for (auto& v : shifted) v += 5.0F;
  const auto s2 = softmax_reference(shifted, rows, cols);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s2[i], s[i], 1e-6F);
  }
}

TEST(GeluReference, KnownValuesAndSymmetry) {
  EXPECT_NEAR(gelu_reference(0.0F), 0.0F, 1e-7F);
  EXPECT_NEAR(gelu_reference(10.0F), 10.0F, 1e-5F);   // ~identity for large x
  EXPECT_NEAR(gelu_reference(-10.0F), 0.0F, 1e-5F);   // ~0 for very negative
  // gelu(x) - gelu(-x) == x (since Phi(x) + Phi(-x) == 1).
  for (float x : {0.3F, 1.0F, 2.5F}) {
    EXPECT_NEAR(gelu_reference(x) - gelu_reference(-x), x, 1e-6F);
  }
}

TEST(LayernormReference, NormalizesRows) {
  Rng rng(302);
  const int rows = 5;
  const int cols = 64;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, 3.0F, 5.0F);
  const std::vector<float> gamma(static_cast<std::size_t>(cols), 1.0F);
  const std::vector<float> beta(static_cast<std::size_t>(cols), 0.0F);
  const auto y = layernorm_reference(x, rows, cols, gamma, beta);
  for (int r = 0; r < rows; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int c = 0; c < cols; ++c) {
      mean += y[static_cast<std::size_t>(r) * cols + c];
    }
    mean /= cols;
    for (int c = 0; c < cols; ++c) {
      const double d = y[static_cast<std::size_t>(r) * cols + c] - mean;
      var += d * d;
    }
    var /= cols;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(ApproxExp, AccurateOnSoftmaxRange) {
  Rng rng(303);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.uniform(-20.0F, 0.0F);
    EXPECT_NEAR(approx_exp(x), std::exp(x), 2e-6F) << "x=" << x;
  }
  // Clamped outside the fitted range; never negative.
  EXPECT_NEAR(approx_exp(-100.0F), 0.0F, 2e-6F);
  EXPECT_GE(approx_exp(-19.9999F), 0.0F);
  EXPECT_NEAR(approx_exp(5.0F), 1.0F, 2e-6F);  // clamps to exp(0)
}

TEST(ApproxExpSplit, AccurateAndCheaper) {
  Rng rng(304);
  OpCounter plain;
  OpCounter fast;
  for (int i = 0; i < 5000; ++i) {
    const float x = rng.uniform(-20.0F, 0.0F);
    const float ref = std::exp(x);
    EXPECT_NEAR(approx_exp(x, &plain), ref, 2e-6F);
    EXPECT_NEAR(approx_exp_split(x, &fast), ref,
                std::max(1e-5F, 1e-5F * ref));
  }
  EXPECT_LT(fast.device_flops() * 3, plain.device_flops());
}

TEST(ApproxTanh, BoundedErrorAndOddSymmetry) {
  Rng rng(305);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.uniform(-6.0F, 6.0F);
    EXPECT_NEAR(approx_tanh(x), std::tanh(x), 4e-3F) << "x=" << x;
    EXPECT_FLOAT_EQ(approx_tanh(-x), -approx_tanh(x));
  }
  EXPECT_FLOAT_EQ(approx_tanh(100.0F), 1.0F);
  EXPECT_FLOAT_EQ(approx_tanh(-100.0F), -1.0F);
}

TEST(ApproxGelu, TracksReference) {
  Rng rng(306);
  for (int i = 0; i < 5000; ++i) {
    const float x = rng.normal(0.0F, 2.5F);
    EXPECT_NEAR(approx_gelu(x), gelu_reference(x), 8e-3F) << "x=" << x;
  }
}

TEST(ApproxSoftmax, PlainAndFastAgreeWithReference) {
  Rng rng(307);
  const int rows = 6;
  const int cols = 197;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, 0.0F, 2.0F);
  const auto ref = softmax_reference(x, rows, cols);
  const auto plain = approx_softmax(x, rows, cols);
  const auto fast = approx_softmax(x, rows, cols, nullptr, true);
  EXPECT_LT(compute_error_stats(plain, ref).max_abs, 1e-4);
  EXPECT_LT(compute_error_stats(fast, ref).max_abs, 1e-4);
}

TEST(ApproxLayernorm, TracksReference) {
  Rng rng(308);
  const int rows = 4;
  const int cols = 96;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, -1.0F, 4.0F);
  std::vector<float> gamma(static_cast<std::size_t>(cols));
  std::vector<float> beta(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    gamma[static_cast<std::size_t>(c)] = 0.8F + 0.005F * static_cast<float>(c);
    beta[static_cast<std::size_t>(c)] = -0.1F * static_cast<float>(c % 5);
  }
  const auto ref = layernorm_reference(x, rows, cols, gamma, beta);
  const auto got = approx_layernorm(x, rows, cols, gamma, beta);
  EXPECT_LT(compute_error_stats(got, ref).rel_rmse, 1e-3);
}

TEST(OpCounter, AccumulatesAndSums) {
  OpCounter a;
  a.fp_mul = 3;
  a.fp_add = 4;
  a.exp_manip = 1;
  a.host_div = 2;
  a.host_other = 5;
  OpCounter b;
  b.fp_mul = 10;
  b += a;
  EXPECT_EQ(b.fp_mul, 13u);
  EXPECT_EQ(b.device_flops(), 13u + 4u + 1u);
  EXPECT_EQ(b.total(), 13u + 4u + 1u + 2u + 5u);
}

TEST(OpCounters, SoftmaxCountsScaleLinearlyWithElements) {
  Rng rng(309);
  OpCounter small;
  OpCounter big;
  const auto x1 = rng.normal_vec(2 * 64, 0.0F, 1.0F);
  const auto x2 = rng.normal_vec(8 * 64, 0.0F, 1.0F);
  approx_softmax(x1, 2, 64, &small);
  approx_softmax(x2, 8, 64, &big);
  EXPECT_EQ(big.fp_mul, 4 * small.fp_mul);
  EXPECT_EQ(big.fp_add, 4 * small.fp_add);
  EXPECT_EQ(big.host_div, 4 * small.host_div);
}

// The per-row op counts instruction_cost charges the nonlinear macros,
// pinned at DeiT-Small's row lengths.
TEST(OpCounters, NonlinearMacroCountsPinned) {
  auto host = [](const OpCounter& c) { return c.host_div + c.host_other; };
  // exp-dominated softmax: the degree-16 Chebyshev exp costs 54 device
  // ops per element, plus subtract, sum and scale (the paper's Table IV
  // implies ~52). Host: a max compare and two exp clamp compares per
  // element, one division per row.
  const OpCounter sm = approx_softmax_ops(1, 197);
  EXPECT_EQ(sm.device_flops(), 57u * 197);
  EXPECT_EQ(host(sm), 3u * 197 + 1);
  // GELU: the tanh polynomial and its comparator on every element.
  const OpCounter ge = approx_gelu_ops(1);
  EXPECT_EQ(ge.device_flops(), 28u);
  EXPECT_EQ(host(ge), 1u);
  // LayerNorm: 7 ops per element plus 5 per row, one host rsqrt per row.
  const OpCounter ln = approx_layernorm_ops(1, 384);
  EXPECT_EQ(ln.device_flops(), 7u * 384 + 5);
  EXPECT_EQ(host(ln), 1u);
}

}  // namespace
}  // namespace bfpsim
