// Tests for the instruction set, program serialization, the executor, and
// the pre-built non-linear kernels.
#include "isa/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "isa/kernels.hpp"
#include "numerics/nonlinear.hpp"

namespace bfpsim {
namespace {

TEST(Instruction, EncodeDecodeRoundTrip) {
  Instruction inst;
  inst.op = Opcode::kBfpMatmul;
  inst.dst = 7;
  inst.src_a = 3;
  inst.src_b = 4;
  inst.imm = -1.5F;
  inst.m = 197;
  inst.k = 384;
  inst.n = 1152;
  inst.flags = 0xBEEF;
  EXPECT_EQ(decode(encode(inst)), inst);
}

TEST(Instruction, DecodeRejectsBadOpcode) {
  InstructionWord w{};
  w[0] = 0xFF;
  EXPECT_THROW(decode(w), Error);
}

TEST(Instruction, HostOpClassification) {
  EXPECT_TRUE(is_host_op(Opcode::kHostDiv));
  EXPECT_TRUE(is_host_op(Opcode::kHostRecip));
  EXPECT_TRUE(is_host_op(Opcode::kRowMax));
  EXPECT_FALSE(is_host_op(Opcode::kVecMul));
  EXPECT_FALSE(is_host_op(Opcode::kBfpMatmul));
}

TEST(Instruction, AllOpcodesRoundTripAndName) {
  for (int op = 0; op <= static_cast<int>(Opcode::kHalt); ++op) {
    Instruction inst;
    inst.op = static_cast<Opcode>(op);
    inst.dst = 1;
    inst.src_a = 2;
    inst.src_b = 3;
    inst.m = 4;
    inst.k = 5;
    inst.n = 6;
    EXPECT_EQ(decode(encode(inst)), inst) << "op=" << op;
    EXPECT_STRNE(opcode_name(static_cast<Opcode>(op)), "?");
  }
}

TEST(Program, SerializeRoundTrip) {
  ProgramBuilder b;
  b.vec_mul(1, 2, 3).vec_add_scalar(4, 1, 0.5F).host_recip(5, 4).halt();
  const Program p = b.build();
  const Program q = Program::deserialize(p.serialize());
  ASSERT_EQ(q.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(q.instructions()[i], p.instructions()[i]) << "i=" << i;
  }
  EXPECT_FALSE(p.disassemble().empty());
}

TEST(Program, BuilderValidatesRegisters) {
  ProgramBuilder b;
  EXPECT_THROW(b.vec_mul(256, 0, 0), Error);
  EXPECT_THROW(b.bfp_matmul(0, 1, 2, 0, 8, 8), Error);
}

class ExecutorTest : public ::testing::Test {
 protected:
  AcceleratorSystem system_;
  Executor ex_{system_};
  Rng rng_{81};
};

TEST_F(ExecutorTest, VecMulAndAdd) {
  const std::vector<float> a = {1.5F, -2.0F, 3.0F, 0.5F};
  const std::vector<float> b = {2.0F, 4.0F, -1.0F, 8.0F};
  ex_.set_tensor(0, 2, 2, a);
  ex_.set_tensor(1, 2, 2, b);
  ProgramBuilder pb;
  pb.vec_mul(2, 0, 1).vec_add(3, 0, 1).halt();
  const ExecutionStats stats = ex_.run(pb.build());
  const auto& mul = ex_.tensor(2);
  const auto& add = ex_.tensor(3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(mul.data[static_cast<std::size_t>(i)],
                    a[static_cast<std::size_t>(i)] *
                        b[static_cast<std::size_t>(i)]);
    EXPECT_FLOAT_EQ(add.data[static_cast<std::size_t>(i)],
                    a[static_cast<std::size_t>(i)] +
                        b[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(stats.ops.fp_mul, 4u);
  EXPECT_EQ(stats.ops.fp_add, 4u);
  EXPECT_GT(stats.device_cycles, 0u);
  EXPECT_EQ(stats.instructions, 2u);
}

TEST_F(ExecutorTest, MatmulMatchesSystem) {
  const int m = 16;
  const int k = 16;
  const int n = 8;
  const auto a = rng_.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng_.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  ex_.set_tensor(0, m, k, a);
  ex_.set_tensor(1, k, n, b);
  ProgramBuilder pb;
  pb.bfp_matmul(2, 0, 1, m, k, n).halt();
  ex_.run(pb.build());
  const GemmRun ref = system_.gemm(a, m, k, b, n);
  const auto& c = ex_.tensor(2);
  for (std::size_t i = 0; i < ref.c.size(); ++i) {
    EXPECT_EQ(c.data[i], ref.c[i]);
  }
}

TEST_F(ExecutorTest, ShapeMismatchThrows) {
  ex_.set_tensor(0, 2, 2, std::vector<float>{1, 2, 3, 4});
  ex_.set_tensor(1, 1, 4, std::vector<float>{1, 2, 3, 4});
  ProgramBuilder pb;
  pb.vec_mul(2, 0, 1).halt();
  EXPECT_THROW(ex_.run(pb.build()), Error);
}

TEST_F(ExecutorTest, UnsetRegisterThrows) {
  ProgramBuilder pb;
  pb.vec_mul(2, 0, 1).halt();
  EXPECT_THROW(ex_.run(pb.build()), Error);
}

TEST_F(ExecutorTest, TransposeSliceConcatOps) {
  const int m = 3;
  const int n = 8;
  std::vector<float> x(static_cast<std::size_t>(m) * n);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i);
  }
  ex_.set_tensor(0, m, n, x);
  ProgramBuilder pb;
  pb.transpose(1, 0, m, n)
      .slice_cols(2, 0, m, 2, 3)   // columns 2..4
      .slice_cols(3, 0, m, 5, 3)   // columns 5..7
      .concat_cols(4, 2, 3)        // columns 2..7
      .halt();
  ex_.run(pb.build());
  const RegTensor& t = ex_.tensor(1);
  EXPECT_EQ(t.rows, n);
  EXPECT_EQ(t.cols, m);
  EXPECT_EQ(t.data[0], 0.0F);
  EXPECT_EQ(t.data[static_cast<std::size_t>(1) * m + 0], 1.0F);  // A[0][1]
  const RegTensor& cat = ex_.tensor(4);
  EXPECT_EQ(cat.cols, 6);
  for (int r = 0; r < m; ++r) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(cat.data[static_cast<std::size_t>(r) * 6 + j],
                x[static_cast<std::size_t>(r) * n + 2 + j]);
    }
  }
  // Bounds violations throw.
  ProgramBuilder bad;
  bad.slice_cols(5, 0, m, 6, 4).halt();
  EXPECT_THROW(ex_.run(bad.build()), Error);
}

TEST_F(ExecutorTest, ColumnBroadcastOps) {
  const int m = 4;
  const int n = 3;
  const std::vector<float> x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const std::vector<float> v = {10.0F, 100.0F, 1000.0F};
  ex_.set_tensor(0, m, n, x);
  ex_.set_tensor(1, 1, n, v);
  ProgramBuilder pb;
  pb.col_add_bcast(2, 0, 1, m, n).col_mul_bcast(3, 0, 1, m, n).halt();
  ex_.run(pb.build());
  const auto& add = ex_.tensor(2);
  const auto& mul = ex_.tensor(3);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * n + c;
      EXPECT_FLOAT_EQ(add.data[i], x[i] + v[static_cast<std::size_t>(c)]);
      EXPECT_FLOAT_EQ(mul.data[i], x[i] * v[static_cast<std::size_t>(c)]);
    }
  }
  // The broadcast vector must be (1 x cols).
  ex_.set_tensor(4, 1, 2, std::vector<float>{1.0F, 2.0F});
  ProgramBuilder bad;
  bad.col_add_bcast(5, 0, 4, m, n).halt();
  EXPECT_THROW(ex_.run(bad.build()), Error);
}

TEST_F(ExecutorTest, SoftmaxKernelMatchesReference) {
  const int rows = 12;
  const int cols = 50;
  const auto x = rng_.normal_vec(
      static_cast<std::size_t>(rows) * cols, 0.0F, 2.0F);
  ex_.set_tensor(kernels::kIn, rows, cols, x);
  const ExecutionStats stats = ex_.run(kernels::softmax(rows, cols));
  const auto got = ex_.tensor(kernels::kOut).data;
  const auto ref = softmax_reference(x, rows, cols);
  const ErrorStats s = compute_error_stats(got, ref);
  EXPECT_LT(s.max_abs, 1e-4);
  // Rows sum to ~1.
  for (int r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      sum += got[static_cast<std::size_t>(r) * cols + c];
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
  // Exactly one host division per row (Section III-B), plus the row-max
  // comparisons.
  EXPECT_EQ(stats.ops.host_div, static_cast<std::uint64_t>(rows));
  EXPECT_GT(stats.ops.fp_mul, 0u);
}

TEST_F(ExecutorTest, LayerNormKernelMatchesReference) {
  const int rows = 8;
  const int cols = 64;
  const auto x = rng_.normal_vec(
      static_cast<std::size_t>(rows) * cols, 1.0F, 3.0F);
  std::vector<float> gamma(static_cast<std::size_t>(cols));
  std::vector<float> beta(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    gamma[static_cast<std::size_t>(c)] = 0.5F + 0.01F * static_cast<float>(c);
    beta[static_cast<std::size_t>(c)] = -0.2F + 0.02F * static_cast<float>(c);
  }
  ex_.set_tensor(kernels::kIn, rows, cols, x);
  ex_.set_tensor(kernels::kGamma, 1, cols, gamma);
  ex_.set_tensor(kernels::kBeta, 1, cols, beta);
  ProgramBuilder b;
  kernels::layernorm(b, rows, cols, 1e-5F,
                     {.in = kernels::kIn,
                      .out = kernels::kOut,
                      .gamma = kernels::kGamma,
                      .beta = kernels::kBeta,
                      .scratch = kernels::kScratchBase});
  ex_.run(b.halt().build());
  const auto got = ex_.tensor(kernels::kOut).data;
  const auto ref = layernorm_reference(x, rows, cols, gamma, beta);
  const ErrorStats s = compute_error_stats(got, ref);
  EXPECT_LT(s.rel_rmse, 1e-3);
}

TEST_F(ExecutorTest, GeluKernelMatchesReference) {
  const auto x = rng_.normal_vec(512, 0.0F, 2.0F);
  ex_.set_tensor(kernels::kIn, 8, 64, x);
  ex_.run(kernels::gelu());
  const auto got = ex_.tensor(kernels::kOut).data;
  const auto ref = gelu_reference(x);
  const ErrorStats s = compute_error_stats(got, ref);
  // tanh-form GELU with a polynomial tanh: small absolute error (the tanh
  // clamp at |x| = 3.2 contributes up to ~5e-3 near its edge).
  EXPECT_LT(s.max_abs, 8e-3);
}

TEST_F(ExecutorTest, RmsnormKernelMatchesReference) {
  const int rows = 6;
  const int cols = 48;
  const auto x = rng_.normal_vec(
      static_cast<std::size_t>(rows) * cols, 0.5F, 2.0F);
  std::vector<float> gamma(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    gamma[static_cast<std::size_t>(c)] = 0.9F + 0.01F * static_cast<float>(c);
  }
  ex_.set_tensor(kernels::kIn, rows, cols, x);
  ex_.set_tensor(kernels::kGamma, 1, cols, gamma);
  const ExecutionStats stats = ex_.run(kernels::rmsnorm(rows, cols));
  const auto got = ex_.tensor(kernels::kOut).data;
  const auto ref = rmsnorm_reference(x, rows, cols, gamma);
  EXPECT_LT(compute_error_stats(got, ref).rel_rmse, 1e-3);
  // One host rsqrt per row, no mean pass (cheaper than LayerNorm).
  EXPECT_EQ(stats.ops.host_div, static_cast<std::uint64_t>(rows));
  OpCounter ln_ops;
  approx_layernorm(x, rows, cols,
                   std::vector<float>(static_cast<std::size_t>(cols), 1.0F),
                   std::vector<float>(static_cast<std::size_t>(cols), 0.0F),
                   &ln_ops);
  EXPECT_LT(stats.ops.device_flops(), ln_ops.device_flops());
}

TEST_F(ExecutorTest, SiluKernelMatchesReference) {
  const auto x = rng_.normal_vec(512, 0.0F, 2.0F);
  ex_.set_tensor(kernels::kIn, 8, 64, x);
  const ExecutionStats stats = ex_.run(kernels::silu());
  const auto got = ex_.tensor(kernels::kOut).data;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref =
        static_cast<double>(x[i]) / (1.0 + std::exp(-static_cast<double>(x[i])));
    // tanh-form sigmoid: polynomial error plus the |x/2| >= 3.2 clamp tail.
    EXPECT_NEAR(got[i], ref, 1.5e-2) << "x=" << x[i];
  }
  // The tanh formulation needs no host division at all.
  EXPECT_EQ(stats.ops.host_div, 0u);
}

}  // namespace
}  // namespace bfpsim
