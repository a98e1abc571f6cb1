// Run-time programmability: compile a NEW non-linear activation to the
// fp32 vector unit without touching "hardware".
//
// The paper's introduction argues that Transformer research keeps minting
// non-linear functions (GLU variants, SiLU/SwiGLU in Llama-2, ...) and that
// a run-time-programmable fp32 unit future-proofs the accelerator. This
// example demonstrates exactly that workflow:
//
//   1. use the shipped SiLU kernel,
//   2. author a brand-new kernel (Swish-beta and "squared ReLU") with the
//      ProgramBuilder,
//   3. serialize the program to the 128-bit instruction words a host
//      driver would DMA to the unit, disassemble, and execute.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/kernels.hpp"

namespace {

// Swish_beta(x) = x * sigmoid(beta * x), via sigmoid(t) = 0.5(1+tanh(t/2)).
bfpsim::Program swish_beta(float beta) {
  using namespace bfpsim;
  ProgramBuilder b;
  b.vec_mul_scalar(8, kernels::kIn, 0.5F * beta)  // t = beta*x/2
      .vec_tanh(9, 8)
      .vec_add_scalar(9, 9, 1.0F)
      .vec_mul_scalar(9, 9, 0.5F)                 // sigmoid(beta*x)
      .vec_mul(kernels::kOut, kernels::kIn, 9)
      .halt();
  return b.build();
}

// Squared ReLU (Primer): relu(x)^2 = (0.5*(x + |x|))^2, with |x| computed
// as x * tanh(large * x) ~ x * sign(x) on the tanh unit.
bfpsim::Program squared_relu() {
  using namespace bfpsim;
  ProgramBuilder b;
  b.vec_mul_scalar(8, kernels::kIn, 64.0F)  // steepen
      .vec_tanh(8, 8)                       // ~sign(x)
      .vec_mul(8, 8, kernels::kIn)          // ~|x|
      .vec_add(8, 8, kernels::kIn)          // x + |x|
      .vec_mul_scalar(8, 8, 0.5F)           // relu(x)
      .vec_mul(kernels::kOut, 8, 8)         // squared
      .halt();
  return b.build();
}

}  // namespace

int main() {
  using namespace bfpsim;
  const AcceleratorSystem sys;
  Rng rng(3);
  const int rows = 16;
  const int cols = 64;
  const auto x =
      rng.normal_vec(static_cast<std::size_t>(rows) * cols, 0.0F, 2.0F);

  std::printf("=== Run-time programmable non-linear functions ===\n\n");

  // 1. Shipped SiLU kernel.
  {
    Executor ex(sys);
    ex.set_tensor(kernels::kIn, rows, cols, x);
    ex.run(kernels::silu());
    const auto& out = ex.tensor(kernels::kOut).data;
    double max_err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double ref = static_cast<double>(x[i]) /
                         (1.0 + std::exp(-static_cast<double>(x[i])));
      max_err = std::max(max_err, std::fabs(out[i] - ref));
    }
    std::printf("SiLU (shipped kernel):        max abs err %.2e\n", max_err);
  }

  // 2. A new activation, compiled on the spot.
  {
    const Program prog = swish_beta(1.5F);
    Executor ex(sys);
    ex.set_tensor(kernels::kIn, rows, cols, x);
    const ExecutionStats stats = ex.run(prog);
    const auto out = ex.tensor(kernels::kOut).data;
    double max_err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double ref =
          static_cast<double>(x[i]) /
          (1.0 + std::exp(-1.5 * static_cast<double>(x[i])));
      max_err = std::max(max_err, std::fabs(out[i] - ref));
    }
    std::printf("Swish(beta=1.5) (user kernel): max abs err %.2e, "
                "%llu device ops, %llu host ops\n",
                max_err,
                static_cast<unsigned long long>(stats.ops.device_flops()),
                static_cast<unsigned long long>(stats.host_ops));
  }

  // 3. Squared ReLU + the driver's-eye view of the binary program.
  {
    const Program prog = squared_relu();
    const auto image = prog.serialize();
    std::printf("\nSquared-ReLU program: %zu instructions, %zu-byte binary "
                "image\n",
                prog.size(), image.size());
    std::printf("%s\n", prog.disassemble().c_str());

    const Program reloaded = Program::deserialize(image);
    Executor ex(sys);
    ex.set_tensor(kernels::kIn, rows, cols, x);
    ex.run(reloaded);
    const auto out = ex.tensor(kernels::kOut).data;
    double max_err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double r = std::max(0.0F, x[i]);
      max_err = std::max(max_err, std::fabs(out[i] - r * r));
    }
    std::printf("Squared-ReLU (round-tripped through the binary image): "
                "max abs err %.2e\n",
                max_err);
  }

  std::printf("\nNo gate changed hands: three activations, one hardware "
              "unit (Section I's\nrun-time programmability argument).\n");
  return 0;
}
