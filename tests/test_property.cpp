// Cross-cutting property and failure-injection tests:
//  * randomized shape sweep pinning the cycle-accurate GEMM to the golden
//    fast path (TEST_P),
//  * rounding-mode properties of the quantizer,
//  * hardware-contract violations surfacing as exceptions, not silent
//    corruption,
//  * randomized executor programs vs direct evaluation,
//  * data independence of every opcode's cycle charge.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/dsp48e2.hpp"
#include "isa/executor.hpp"
#include "numerics/format/registry.hpp"
#include "numerics/quantizer.hpp"
#include "pu/processing_unit.hpp"

namespace bfpsim {
namespace {

/// -------- GEMM shape sweep: cycle path == golden path --------

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, CyclePathMatchesGoldenPath) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  ProcessingUnit pu;
  const auto a = rng.normal_vec(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 0.0F, 1.0F);
  const auto b = rng.normal_vec(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 0.0F, 1.0F);
  const GemmRun cyc = pu.gemm_bfp8(a, m, k, b, n);
  const GemmRun fast = pu.gemm_bfp8_fast(a, m, k, b, n);
  ASSERT_EQ(cyc.c.size(), fast.c.size());
  for (std::size_t i = 0; i < cyc.c.size(); ++i) {
    ASSERT_EQ(cyc.c[i], fast.c[i]) << m << "x" << k << "x" << n << " @" << i;
  }
  EXPECT_EQ(cyc.compute_cycles, fast.compute_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(8, 8, 8),
                      std::make_tuple(8, 8, 16), std::make_tuple(16, 8, 8),
                      std::make_tuple(3, 5, 7), std::make_tuple(9, 17, 33),
                      std::make_tuple(25, 24, 23),
                      std::make_tuple(40, 8, 40),
                      std::make_tuple(7, 64, 9)));

/// -------- quantizer rounding-mode properties --------

class RoundModeSweep : public ::testing::TestWithParam<RoundMode> {};

TEST_P(RoundModeSweep, QuantizeNeverOverflowsAndBoundsError) {
  const RoundMode mode = GetParam();
  Rng rng(static_cast<std::uint64_t>(mode) + 77);
  const BfpFormat fmt = bfp8_format();
  for (int trial = 0; trial < 100; ++trial) {
    const float scale = std::exp(rng.uniform(-8.0F, 8.0F));
    const auto tile = rng.normal_vec(64, 0.0F, scale);
    const BfpBlock b = quantize_block(tile, fmt, mode);
    ASSERT_TRUE(b.well_formed());
    const auto back = b.dequantize();
    const float ulp = std::ldexp(1.0F, b.expb);
    for (std::size_t i = 0; i < tile.size(); ++i) {
      // Truncation: within 1 ulp below; nearest modes: within 0.5+eps ulp.
      const float bound =
          mode == RoundMode::kTruncate ? 1.0F * ulp : 0.51F * ulp;
      ASSERT_LE(std::fabs(back[i] - tile[i]), bound + 1e-12F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RoundModeSweep,
                         ::testing::Values(RoundMode::kTruncate,
                                           RoundMode::kNearestEven,
                                           RoundMode::kHalfAway));

TEST(QuantizerProperty, TruncationNeverIncreasesMagnitudeOfPositive) {
  Rng rng(88);
  const BfpFormat fmt = bfp8_format();
  for (int trial = 0; trial < 50; ++trial) {
    auto tile = rng.uniform_vec(64, 0.0F, 10.0F);  // non-negative
    const BfpBlock b = quantize_block(tile, fmt, RoundMode::kTruncate);
    const auto back = b.dequantize();
    for (std::size_t i = 0; i < tile.size(); ++i) {
      ASSERT_LE(back[i], tile[i] + 1e-6F);
    }
  }
}

/// -------- failure injection: contracts throw, never corrupt --------

TEST(FailureInjection, PsuOverflowSurfacesFromPublicApi) {
  // Force a PSU overflow: gemm with a huge K so aligned partial sums
  // exceed a deliberately narrow carrier.
  PuConfig cfg;
  cfg.psu_bits = 16;  // absurdly narrow accumulator
  ProcessingUnit pu(cfg);
  Rng rng(89);
  const int m = 8;
  const int k = 512;  // 64 k-tiles of worst-case magnitude sums
  const int n = 8;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 1.0F);
  std::vector<float> b(static_cast<std::size_t>(k) * n, 1.0F);
  EXPECT_THROW(pu.gemm_bfp8(a, m, k, b, n), HardwareContractError);
}

TEST(FailureInjection, AccOverflowInFp32Add) {
  PuConfig cfg;
  cfg.psu_bits = 24;  // narrower than a 24-bit mantissa sum needs
  ProcessingUnit pu(cfg);
  std::vector<float> x = {1.9999999F};
  std::vector<float> y = {1.9999999F};
  EXPECT_THROW(pu.fp32_add_stream(x, y), Error);
}

TEST(FailureInjection, DspRejectsOutOfRangeAfterManualPacking) {
  // pack_dual would produce a value that fits, but corrupting the packed
  // word must trip the DSP port check instead of wrapping.
  Dsp48e2 d;
  EXPECT_THROW(
      d.eval(std::int64_t{1} << 27, 1, 0, 0, 0, DspAccSrc::kZero, false),
      HardwareContractError);
}

TEST(FailureInjection, NonFiniteInputsRejectedEverywhere) {
  ProcessingUnit pu;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> bad = {inf};
  std::vector<float> good = {1.0F};
  EXPECT_THROW(pu.fp32_mul_stream(bad, good), Error);
  EXPECT_THROW(pu.fp32_add_stream(good, bad), Error);
  std::vector<float> a(64, 1.0F);
  a[3] = inf;
  std::vector<float> b(64, 1.0F);
  EXPECT_THROW(pu.gemm_bfp8(a, 8, 8, b, 8), Error);
}

/// -------- randomized executor programs --------

TEST(ExecutorFuzz, RandomElementwiseChainsMatchDirectEvaluation) {
  Rng rng(90);
  const AcceleratorSystem system;
  for (int trial = 0; trial < 25; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(1, 6));
    const int cols = static_cast<int>(rng.uniform_int(1, 24));
    const auto x0 = rng.normal_vec(
        static_cast<std::size_t>(rows) * cols, 0.0F, 1.0F);
    Executor ex(system);
    ex.set_tensor(0, rows, cols, x0);

    // Apply a random chain of safe elementwise ops to register 0 -> 1,
    // mirroring them on a host-side vector.
    std::vector<float> ref = x0;
    ProgramBuilder pb;
    int cur = 0;
    const int steps = static_cast<int>(rng.uniform_int(1, 6));
    for (int s = 0; s < steps; ++s) {
      const int next = 10 + s;
      const int pick = static_cast<int>(rng.uniform_int(0, 2));
      if (pick == 0) {
        const float c = rng.uniform(0.5F, 2.0F);
        pb.vec_mul_scalar(next, cur, c);
        for (auto& v : ref) v = fp32_mul_sliced(v, c);
      } else if (pick == 1) {
        const float c = rng.uniform(-1.0F, 1.0F);
        pb.vec_add_scalar(next, cur, c);
        for (auto& v : ref) v = fp32_add_aligned(v, c);
      } else {
        pb.vec_mul(next, cur, cur);
        for (auto& v : ref) v = fp32_mul_sliced(v, v);
      }
      cur = next;
    }
    pb.halt();
    ex.run(pb.build());
    const auto& out = ex.tensor(cur);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(float_to_bits(out.data[i]), float_to_bits(ref[i]))
          << "trial=" << trial << " i=" << i;
    }
  }
}

/// -------- cycle costs depend on shapes, never on values --------

TEST(CostModel, EveryOpcodeChargesTheSameForAnyValues) {
  // Operands: r0 = A and r1 = B (m x n), r2 = row vector (m x 1),
  // r3 = column vector (1 x n), r4 = matmul B (n x p), r5/r6 (m x n).
  const int m = 6;
  const int n = 16;
  const int p = 8;
  const TensorShape shapes[] = {{m, n}, {m, n}, {m, 1}, {1, n},
                                {n, p}, {m, n}, {m, n}};
  ProgramBuilder pb;
  pb.raw(Instruction{}).sync().halt().bfp_matmul(7, 0, 4, m, n, p);
  for (std::size_t i = 0; i < numeric_modes().size(); ++i) {
    pb.bfp_matmul(7, 0, 4, m, n, p, static_cast<int>(i) + 1);
  }
  pb.vec_mul(7, 0, 1).vec_add(7, 0, 1).vec_mul_scalar(7, 0, 1.5F)
      .vec_add_scalar(7, 0, -0.5F).vec_exp(7, 0).vec_exp(7, 0, true)
      .vec_tanh(7, 0).row_sum(7, 0, m, n).row_max(7, 0, m, n)
      .row_sub(7, 0, 2, m, n).row_mul_bcast(7, 0, 2, m, n)
      .host_div(7, 0, 1).host_rsqrt(7, 0, 1e-5F).host_recip(7, 0)
      .col_add_bcast(7, 0, 3, m, n).col_mul_bcast(7, 0, 3, m, n)
      .transpose(7, 0, m, n).slice_cols(7, 0, m, 8, 8).concat_cols(7, 0, 1)
      .layernorm_m(7, 0, 3, 3, m, n, 1e-5F).rmsnorm_m(7, 0, 3, m, n, 1e-5F)
      .softmax_m(7, 0, m, n).softmax_m(7, 0, m, n, true).gelu_m(7, 0)
      .silu_m(7, 0).rope(7, 0, 5, 6, m, n).bias_gelu(7, 0, 3, m, n)
      .bias_silu(7, 0, 3, m, n).bias_residual(7, 0, 3, 5, m, n);
  const Program all = pb.build();

  // Random-normal operands against saturated ones (|x| = 50: every tanh
  // and exp lane clamps).
  const AcceleratorSystem system;
  Executor normal(system);
  Executor saturated(system);
  Rng rng(4);
  for (int r = 0; r < 7; ++r) {
    const TensorShape s = shapes[r];
    std::vector<float> x(s.elements());
    std::vector<float> y(s.elements());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.normal(0.0F, 1.0F);
      y[i] = rng.uniform(0.0F, 1.0F) < 0.5F ? -50.0F : 50.0F;
    }
    normal.set_tensor(r, s.rows, s.cols, x);
    saturated.set_tensor(r, s.rows, s.cols, y);
  }

  std::set<Opcode> covered;
  for (const Instruction& inst : all.instructions()) {
    covered.insert(inst.op);
    Program one;
    one.push(inst);
    const ExecutionStats a = normal.run(one);
    const ExecutionStats b = saturated.run(one);
    const char* op = opcode_name(inst.op);
    EXPECT_EQ(a.device_cycles, b.device_cycles) << op;
    EXPECT_EQ(a.move_cycles, b.move_cycles) << op;
    EXPECT_EQ(a.host_ops, b.host_ops) << op;
    EXPECT_EQ(a.ops, b.ops) << op;
    // ...and both are the shape-only instruction_cost.
    if (inst.op == Opcode::kHalt) continue;
    const InstructionCost c =
        instruction_cost(inst, shapes[inst.src_a], shapes[inst.src_b],
                         system);
    EXPECT_EQ(a.device_cycles, c.device_cycles) << op;
    EXPECT_EQ(a.move_cycles, c.move_cycles) << op;
    EXPECT_EQ(a.host_ops, c.host_ops) << op;
    EXPECT_EQ(a.ops, c.ops) << op;
    // Every host op of the mix is on the host-op tally (vec.exp's clamp
    // and snap compares included).
    EXPECT_EQ(c.host_ops, c.ops.host_div + c.ops.host_other) << op;
  }
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(kMaxOpcode) + 1);
}

}  // namespace
}  // namespace bfpsim
