// Differential fuzz harness: hammer the cycle-accurate hardware model
// against the golden references with random inputs until a mismatch or the
// iteration budget runs out. Exit code 0 = no divergence found.
//
// Usage: fuzz_diff [--iters N] [--seed S]
//
// Checks per iteration:
//   1. cycle-accurate GEMM vs golden fast path (bit-exact, random shape),
//   2. fp32 sliced multiply vs IEEE (<= 1 ulp under RNE),
//   3. fp32 mul/add streams vs the scalar datapath references (bit-exact),
//   4. bf16 stream vs the bf16 reference (bit-exact),
//   5. executor kernels (softmax) vs the fp64 reference (abs err < 1e-4).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/kernels.hpp"
#include "numerics/bf16.hpp"
#include "numerics/nonlinear.hpp"
#include "numerics/slices.hpp"
#include "pu/processing_unit.hpp"

namespace {

using namespace bfpsim;

struct FuzzStats {
  std::uint64_t gemm_cases = 0;
  std::uint64_t mul_cases = 0;
  std::uint64_t stream_cases = 0;
  std::uint64_t bf16_cases = 0;
  std::uint64_t kernel_cases = 0;
};

[[noreturn]] void fail(const std::string& what, std::uint64_t seed,
                       std::uint64_t iter) {
  std::fprintf(stderr, "FUZZ FAILURE: %s (seed=%llu iter=%llu)\n",
               what.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(iter));
  std::exit(1);
}

void fuzz_gemm(Rng& rng, ProcessingUnit& pu, std::uint64_t seed,
               std::uint64_t iter, FuzzStats& st) {
  const int m = static_cast<int>(rng.uniform_int(1, 40));
  const int k = static_cast<int>(rng.uniform_int(1, 48));
  const int n = static_cast<int>(rng.uniform_int(1, 40));
  const float scale = std::exp(rng.uniform(-4.0F, 4.0F));
  const auto a = rng.normal_vec(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 0.0F,
      scale);
  const auto b = rng.normal_vec(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 0.0F,
      1.0F);
  const GemmRun cyc = pu.gemm_bfp8(a, m, k, b, n);
  const GemmRun fast = pu.gemm_bfp8_fast(a, m, k, b, n);
  for (std::size_t i = 0; i < cyc.c.size(); ++i) {
    if (float_to_bits(cyc.c[i]) != float_to_bits(fast.c[i])) {
      fail("gemm cycle path != golden path at element " + std::to_string(i) +
               " (" + std::to_string(m) + "x" + std::to_string(k) + "x" +
               std::to_string(n) + ")",
           seed, iter);
    }
  }
  if (cyc.compute_cycles != fast.compute_cycles) {
    fail("gemm cycle count mismatch", seed, iter);
  }
  ++st.gemm_cases;
}

void fuzz_sliced_mul(Rng& rng, std::uint64_t seed, std::uint64_t iter,
                     FuzzStats& st) {
  for (int i = 0; i < 64; ++i) {
    const float x = random_normal_fp32(rng, 64, 190);
    const float y = random_normal_fp32(rng, 64, 190);
    const float ieee = x * y;
    if (!std::isfinite(ieee) ||
        std::fabs(ieee) < 1.2e-38F) {
      continue;
    }
    const float got = fp32_mul_sliced(x, y, true);
    if (ulp_distance(got, ieee) > 1) {
      fail("sliced multiply off by >1 ulp: " + fp32_fields(x) + " * " +
               fp32_fields(y),
           seed, iter);
    }
    ++st.mul_cases;
  }
}

void fuzz_streams(Rng& rng, ProcessingUnit& pu, std::uint64_t seed,
                  std::uint64_t iter, FuzzStats& st) {
  const int n = static_cast<int>(rng.uniform_int(1, 600));
  std::vector<float> x(static_cast<std::size_t>(n));
  std::vector<float> y(static_cast<std::size_t>(n));
  for (auto& v : x) v = random_normal_fp32(rng, 100, 150);
  for (auto& v : y) v = random_normal_fp32(rng, 100, 150);
  const VecRun mul = pu.fp32_mul_stream(x, y);
  const VecRun add = pu.fp32_add_stream(x, y);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (float_to_bits(mul.out[idx]) !=
        float_to_bits(fp32_mul_sliced(x[idx], y[idx]))) {
      fail("fp32 mul stream mismatch at " + std::to_string(i), seed, iter);
    }
    if (float_to_bits(add.out[idx]) !=
        float_to_bits(fp32_add_aligned(x[idx], y[idx]))) {
      fail("fp32 add stream mismatch at " + std::to_string(i), seed, iter);
    }
  }
  ++st.stream_cases;
}

void fuzz_bf16(Rng& rng, ProcessingUnit& pu, std::uint64_t seed,
               std::uint64_t iter, FuzzStats& st) {
  const int n = static_cast<int>(rng.uniform_int(1, 300));
  std::vector<float> x(static_cast<std::size_t>(n));
  std::vector<float> y(static_cast<std::size_t>(n));
  for (auto& v : x) v = random_normal_fp32(rng, 100, 150);
  for (auto& v : y) v = random_normal_fp32(rng, 100, 150);
  const VecRun run = pu.bf16_mul_stream(x, y);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Bf16 expect = bf16_mul_reference(bf16_from_float(x[idx]),
                                           bf16_from_float(y[idx]));
    if (float_to_bits(run.out[idx]) !=
        float_to_bits(bf16_to_float(expect))) {
      fail("bf16 stream mismatch at " + std::to_string(i), seed, iter);
    }
  }
  ++st.bf16_cases;
}

void fuzz_kernel(Rng& rng, const AcceleratorSystem& sys, std::uint64_t seed,
                 std::uint64_t iter, FuzzStats& st) {
  const int rows = static_cast<int>(rng.uniform_int(1, 12));
  const int cols = static_cast<int>(rng.uniform_int(2, 128));
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0F,
      3.0F);
  Executor ex(sys);
  ex.set_tensor(kernels::kIn, rows, cols, x);
  ex.run(kernels::softmax(rows, cols));
  const auto& got = ex.tensor(kernels::kOut).data;
  const auto ref = softmax_reference(x, rows, cols);
  if (compute_error_stats(got, ref).max_abs > 1e-4) {
    fail("softmax kernel error above 1e-4 (" + std::to_string(rows) + "x" +
             std::to_string(cols) + ")",
         seed, iter);
  }
  ++st.kernel_cases;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 50;
  std::uint64_t seed = 12345;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--iters") == 0) {
      iters = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    }
  }

  ProcessingUnit pu;
  const AcceleratorSystem sys;
  FuzzStats st;
  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    Rng rng(seed + iter * 0x9E3779B97F4A7C15ull);
    fuzz_gemm(rng, pu, seed, iter, st);
    fuzz_sliced_mul(rng, seed, iter, st);
    fuzz_streams(rng, pu, seed, iter, st);
    fuzz_bf16(rng, pu, seed, iter, st);
    fuzz_kernel(rng, sys, seed, iter, st);
    if ((iter + 1) % 10 == 0) {
      std::printf("iter %llu/%llu ok\n",
                  static_cast<unsigned long long>(iter + 1),
                  static_cast<unsigned long long>(iters));
    }
  }
  std::printf(
      "no divergence in %llu iterations (gemm=%llu mul=%llu streams=%llu "
      "bf16=%llu kernels=%llu)\n",
      static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(st.gemm_cases),
      static_cast<unsigned long long>(st.mul_cases),
      static_cast<unsigned long long>(st.stream_cases),
      static_cast<unsigned long long>(st.bf16_cases),
      static_cast<unsigned long long>(st.kernel_cases));
  return 0;
}
