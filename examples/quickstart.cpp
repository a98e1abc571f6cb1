// Quickstart: the accelerator in five minutes.
//
//   1. create the AcceleratorSystem (the 15-unit Alveo U280 system model),
//   2. run a bfp8 matrix multiply and inspect accuracy + modelled latency,
//   3. run the fp32 vector modes,
//   4. run a non-linear kernel (softmax) on the vector-unit ISA,
//   5. query the platform's throughput numbers.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/kernels.hpp"
#include "numerics/nonlinear.hpp"
#include "pu/processing_unit.hpp"

int main() {
  using namespace bfpsim;

  // 1. The deployed system: 15 processing units x two 8x8 multi-mode
  //    arrays at 300 MHz, fed from HBM. Everything is configurable through
  //    SystemConfig; the default matches the paper's Alveo U280 build.
  const AcceleratorSystem sys;

  // 2. A bfp8 GEMM: inputs are ordinary fp32 tensors; the hardware
  //    quantizer converts them to 8x8 blocks with a shared 8-bit exponent.
  Rng rng(7);
  const int m = 197;
  const int k = 384;
  const int n = 384;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 0.05F);
  const GemmRun gemm = sys.gemm(a, m, k, b, n);

  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double accm = 0.0;
      for (int x = 0; x < k; ++x) {
        accm += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
                b[static_cast<std::size_t>(x) * n + j];
      }
      ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(accm);
    }
  }
  const ErrorStats err = compute_error_stats(gemm.c, ref);
  std::printf("bfp8 GEMM %dx%dx%d:\n", m, k, n);
  std::printf("  SNR vs fp32        : %.1f dB\n", err.snr_db);
  std::printf("  modelled latency   : %.1f us (%llu cycles @300 MHz)\n",
              1e6 * static_cast<double>(gemm.compute_cycles) / 300e6,
              static_cast<unsigned long long>(gemm.compute_cycles));
  std::printf("  MACs               : %llu\n\n",
              static_cast<unsigned long long>(gemm.macs));

  // 3. The same PE array, reconfigured at run time into fp32 vector mode
  //    (one cycle-accurate unit streams the vectors).
  ProcessingUnit pu(sys.config().pu);
  std::vector<float> x(256);
  std::vector<float> y(256);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.5F, 2.0F);
    y[i] = rng.uniform(0.5F, 2.0F);
  }
  const VecRun mul = pu.fp32_mul_stream(x, y);
  const VecRun add = pu.fp32_add_stream(x, y);
  std::printf("fp32 vector modes (256 elements, 4 lanes):\n");
  std::printf("  multiply           : %llu cycles, out[0] = %g (ref %g)\n",
              static_cast<unsigned long long>(mul.compute_cycles),
              mul.out[0], x[0] * y[0]);
  std::printf("  add                : %llu cycles, out[0] = %g (ref %g)\n\n",
              static_cast<unsigned long long>(add.compute_cycles),
              add.out[0], x[0] + y[0]);

  // 4. Non-linear layers compile to vector-unit programs; divisions run on
  //    the host CPU (the paper's Section III-B design decision).
  const int rows = 8;
  const int cols = 197;
  const auto scores =
      rng.normal_vec(static_cast<std::size_t>(rows) * cols, 0.0F, 2.0F);
  Executor ex(sys);
  ex.set_tensor(kernels::kIn, rows, cols, scores);
  const ExecutionStats stats = ex.run(kernels::softmax(rows, cols));
  const auto& probs = ex.tensor(kernels::kOut).data;
  const auto probs_ref = softmax_reference(scores, rows, cols);
  std::printf("softmax on the vector unit (%dx%d):\n", rows, cols);
  std::printf("  max abs error      : %.2e\n",
              compute_error_stats(probs, probs_ref).max_abs);
  std::printf("  device ops         : %llu (mul) + %llu (add)\n",
              static_cast<unsigned long long>(stats.ops.fp_mul),
              static_cast<unsigned long long>(stats.ops.fp_add));
  std::printf("  host divisions     : %llu (one per row)\n\n",
              static_cast<unsigned long long>(stats.ops.host_div));

  // 5. Platform queries (the paper's headline numbers).
  std::printf("platform:\n");
  std::printf("  bfp8 peak          : %.1f GOPS\n",
              sys.peak_bfp_system() / 1e9);
  std::printf("  bfp8 sustained     : %.1f GOPS (paper: 2052.06)\n",
              sys.sustained_bfp_system() / 1e9);
  const double peak_fp32 = sys.peak_fp32_unit() * sys.config().num_units;
  std::printf("  fp32 theoretical   : %.2f GFLOPS (paper: 33.88)\n",
              peak_fp32 / 1e9 * 128.0 / 136.0);
  std::printf("  fp32 sustained     : %.2f GFLOPS\n",
              sys.sustained_fp32_system() / 1e9);
  return 0;
}
