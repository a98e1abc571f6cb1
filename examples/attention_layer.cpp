// A single self-attention layer, built by hand against the public API —
// the workload the paper's introduction motivates (every Transformer block
// carries a softmax between its matrix multiplies).
//
// Shows the mixed-precision choreography explicitly:
//   Q,K,V projections  -> bfp8 MatMul mode
//   Q K^T              -> bfp8 MatMul mode
//   1/sqrt(d) scaling  -> fp32 multiply mode
//   softmax            -> fp32 vector program (+ one host div per row)
//   probs * V          -> bfp8 MatMul mode
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/kernels.hpp"
#include "numerics/nonlinear.hpp"
#include "pu/processing_unit.hpp"

namespace {

std::vector<float> transpose(const std::vector<float>& a, int rows,
                             int cols) {
  std::vector<float> t(a.size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      t[static_cast<std::size_t>(c) * rows + r] =
          a[static_cast<std::size_t>(r) * cols + c];
    }
  }
  return t;
}

std::vector<float> matmul_ref(const std::vector<float>& a, int m, int k,
                              const std::vector<float>& b, int n) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int x = 0; x < k; ++x) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
               b[static_cast<std::size_t>(x) * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

}  // namespace

int main() {
  using namespace bfpsim;
  const AcceleratorSystem sys;
  Rng rng(11);

  const int tokens = 64;
  const int d = 64;  // single head for clarity
  const float scale = 1.0F / std::sqrt(static_cast<float>(d));

  const auto x =
      rng.normal_vec(static_cast<std::size_t>(tokens) * d, 0.0F, 1.0F);
  const auto wq = rng.normal_vec(static_cast<std::size_t>(d) * d, 0.0F, 0.1F);
  const auto wk = rng.normal_vec(static_cast<std::size_t>(d) * d, 0.0F, 0.1F);
  const auto wv = rng.normal_vec(static_cast<std::size_t>(d) * d, 0.0F, 0.1F);

  std::printf("=== One self-attention head on the accelerator ===\n");
  std::printf("tokens=%d  head_dim=%d\n\n", tokens, d);

  std::uint64_t bfp_cycles = 0;
  std::uint64_t vec_cycles = 0;

  // Projections (bfp8 MatMul mode).
  const GemmRun q = sys.gemm(x, tokens, d, wq, d);
  const GemmRun k = sys.gemm(x, tokens, d, wk, d);
  const GemmRun v = sys.gemm(x, tokens, d, wv, d);
  bfp_cycles += q.compute_cycles + k.compute_cycles + v.compute_cycles;

  // Attention scores (bfp8 MatMul mode) + 1/sqrt(d) (fp32 mul mode).
  const auto kt = transpose(k.c, tokens, d);
  GemmRun scores = sys.gemm(q.c, tokens, d, kt, tokens);
  bfp_cycles += scores.compute_cycles;
  {
    ProcessingUnit pu(sys.config().pu);  // one unit streams the vector op
    std::vector<float> scales(scores.c.size(), scale);
    const VecRun scaled = pu.fp32_mul_stream(scores.c, scales);
    scores.c = scaled.out;
    vec_cycles += scaled.compute_cycles;
  }

  // Softmax (fp32 vector program; one host division per row).
  Executor ex(sys);
  ex.set_tensor(kernels::kIn, tokens, tokens, scores.c);
  const ExecutionStats sm_stats = ex.run(kernels::softmax(tokens, tokens));
  const auto& probs = ex.tensor(kernels::kOut).data;
  vec_cycles += sm_stats.device_cycles;

  // Context (bfp8 MatMul mode).
  const GemmRun ctx = sys.gemm(probs, tokens, tokens, v.c, d);
  bfp_cycles += ctx.compute_cycles;

  // fp32 reference for the whole layer.
  const auto q_ref = matmul_ref(x, tokens, d, wq, d);
  const auto k_ref = matmul_ref(x, tokens, d, wk, d);
  const auto v_ref = matmul_ref(x, tokens, d, wv, d);
  auto scores_ref =
      matmul_ref(q_ref, tokens, d, transpose(k_ref, tokens, d), tokens);
  for (auto& s : scores_ref) s *= scale;
  const auto probs_ref = softmax_reference(scores_ref, tokens, tokens);
  const auto ctx_ref = matmul_ref(probs_ref, tokens, tokens, v_ref, d);

  const ErrorStats err = compute_error_stats(ctx.c, ctx_ref);
  std::printf("accuracy vs fp32 reference:\n");
  std::printf("  context SNR      : %.1f dB\n", err.snr_db);
  std::printf("  cosine similarity: %.6f\n\n",
              cosine_similarity(ctx.c, ctx_ref));

  const double f = 300e6;
  std::printf("modelled latency @300 MHz:\n");
  std::printf("  bfp8 MatMul mode : %7.1f us  (5 GEMMs)\n",
              1e6 * static_cast<double>(bfp_cycles) / f);
  std::printf("  fp32 vector mode : %7.1f us  (scale + softmax)\n",
              1e6 * static_cast<double>(vec_cycles) / f);
  std::printf("  host divisions   : %llu (one per attention row)\n",
              static_cast<unsigned long long>(sm_stats.ops.host_div));
  std::printf("\nEven in this single head, the fp32 share of latency is "
              "%.0f%% — the paper's\nmotivation for optimizing the "
              "non-linear path next (Section III-D).\n",
              100.0 * static_cast<double>(vec_cycles) /
                  static_cast<double>(bfp_cycles + vec_cycles));
  return 0;
}
