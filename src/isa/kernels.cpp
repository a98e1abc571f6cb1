#include "isa/kernels.hpp"

namespace bfpsim::kernels {

namespace {

/// The conventional registers the standalone programs bind.
constexpr Frame kConventional{.in = kIn,
                              .out = kOut,
                              .gamma = kGamma,
                              .beta = kBeta,
                              .scratch = kScratchBase};

constexpr int kS0 = kScratchBase + 0;
constexpr int kS1 = kScratchBase + 1;

}  // namespace

void softmax(ProgramBuilder& b, int rows, int cols, bool softermax,
             const Frame& f) {
  const int s0 = f.scratch;
  const int s1 = f.scratch + 1;
  const int s2 = f.scratch + 2;
  const int s3 = f.scratch + 3;
  const int s4 = f.scratch + 4;
  b.row_max(s0, f.in, rows, cols)       // m_i = max_j x_ij   (host compare)
      .row_sub(s1, f.in, s0, rows, cols)  // x - m            (ACC path)
      .vec_exp(s2, s1, softermax)       // exp               (mul/add program)
      .row_sum(s3, s2, rows, cols)      // s_i = sum_j       (ACC path)
      .host_recip(s4, s3)               // 1/s_i             (host division)
      .row_mul_bcast(f.out, s2, s4, rows, cols);  // scale   (PE array)
}

Program softmax(int rows, int cols, bool softermax) {
  ProgramBuilder b;
  softmax(b, rows, cols, softermax, kConventional);
  return b.halt().build();
}

void layernorm(ProgramBuilder& b, int rows, int cols, float eps,
               const Frame& f) {
  const float invn = 1.0F / static_cast<float>(cols);
  const int s0 = f.scratch;
  const int s1 = f.scratch + 1;
  const int s2 = f.scratch + 2;
  b.row_sum(s0, f.in, rows, cols)
      .vec_mul_scalar(s0, s0, invn)                // mean_i
      .row_sub(s1, f.in, s0, rows, cols)           // centered
      .vec_mul(s2, s1, s1)                         // squared
      .row_sum(s2, s2, rows, cols)
      .vec_mul_scalar(s2, s2, invn)                // var_i
      .host_rsqrt(s2, s2, eps)                     // 1/sqrt(var+eps) (host)
      .row_mul_bcast(s1, s1, s2, rows, cols)       // normalized
      .col_mul_bcast(s1, s1, f.gamma, rows, cols)  // * gamma
      .col_add_bcast(f.out, s1, f.beta, rows, cols);  // + beta
}

void gelu(ProgramBuilder& b, const Frame& f) {
  // 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
  const int s0 = f.scratch;
  const int s1 = f.scratch + 1;
  const int s2 = f.scratch + 2;
  b.vec_mul(s0, f.in, f.in)                   // x^2
      .vec_mul(s0, s0, f.in)                  // x^3
      .vec_mul_scalar(s0, s0, 0.044715F)
      .vec_add(s0, s0, f.in)                  // x + 0.044715 x^3
      .vec_mul_scalar(s0, s0, 0.7978845608028654F)
      .vec_tanh(s1, s0)
      .vec_add_scalar(s1, s1, 1.0F)
      .vec_mul_scalar(s2, f.in, 0.5F)
      .vec_mul(f.out, s1, s2);
}

Program gelu() {
  ProgramBuilder b;
  gelu(b, kConventional);
  return b.halt().build();
}

void silu(ProgramBuilder& b, const Frame& f) {
  // x * sigmoid(x) with sigmoid(x) = 0.5 * (1 + tanh(x/2)): stays entirely
  // on the device's mul/add path — no host division needed, unlike the
  // exp-based form (the run-time programmability payoff of Section I).
  const int s0 = f.scratch;
  const int s1 = f.scratch + 1;
  b.vec_mul_scalar(s0, f.in, 0.5F)
      .vec_tanh(s1, s0)
      .vec_add_scalar(s1, s1, 1.0F)
      .vec_mul_scalar(s1, s1, 0.5F)
      .vec_mul(f.out, f.in, s1);
}

Program silu() {
  ProgramBuilder b;
  silu(b, kConventional);
  return b.halt().build();
}

Program rmsnorm(int rows, int cols, float eps) {
  const float invn = 1.0F / static_cast<float>(cols);
  ProgramBuilder b;
  b.vec_mul(kS0, kIn, kIn)                      // x^2
      .row_sum(kS0, kS0, rows, cols)            // sum of squares
      .vec_mul_scalar(kS0, kS0, invn)           // mean square
      .host_rsqrt(kS0, kS0, eps)                // 1/rms (host)
      .row_mul_bcast(kS1, kIn, kS0, rows, cols) // normalized
      .col_mul_bcast(kOut, kS1, kGamma, rows, cols)  // * gamma
      .halt();
  return b.build();
}

}  // namespace bfpsim::kernels
