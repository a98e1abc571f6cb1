// Pre-built vector-unit programs for the transformer's non-linear layers —
// and for layers the paper's future-proofing argument anticipates (new
// activations can be compiled to the same mul/add hardware at run time).
//
// Register conventions (documented per kernel): input tensors in low
// registers, the result lands in kOut, scratch registers start at 8.
#pragma once

#include "isa/program.hpp"

namespace bfpsim::kernels {

/// Register conventions shared by all kernels.
inline constexpr int kIn = 0;     ///< primary input
inline constexpr int kOut = 1;    ///< result
inline constexpr int kGamma = 2;  ///< norm scale, a (1 x cols) row vector
inline constexpr int kBeta = 3;   ///< layernorm shift, a (1 x cols) row vector
inline constexpr int kScratchBase = 8;

/// The registers a kernel binds. The standalone programs below bind the
/// conventions above; the graph compiler passes its own registers to emit
/// a kernel in place.
struct Frame {
  int in;
  int out;
  int gamma;  ///< read by layernorm only
  int beta;   ///< read by layernorm only
  int scratch;  ///< first of the kernel's consecutive scratch registers
};

/// Row-wise softmax over an (rows x cols) input: max-subtract, vec.exp,
/// ACC row-sum, host reciprocal (the Section III-B division), broadcast
/// scale. `softermax` selects the fast split-exp (needs the exp2-unit
/// hardware option; Stevens et al. [8]). Appends the micro-program (no
/// halt) to `b` over `f`'s registers; the compiler's --no-fuse softmax.
void softmax(ProgramBuilder& b, int rows, int cols, bool softermax,
             const Frame& f);

/// The same softmax as a standalone program over the conventional
/// registers.
Program softmax(int rows, int cols, bool softermax = false);

/// Row-wise LayerNorm over (rows x cols) with gamma/beta as (1 x cols) row
/// vectors, applied with column broadcasts: appends the micro-program
/// (no halt) to `b` over `f`'s registers. This is the compiler's --no-fuse
/// LayerNorm lowering.
void layernorm(ProgramBuilder& b, int rows, int cols, float eps,
               const Frame& f);

/// Elementwise GELU (tanh form): appends the micro-program (no halt) to
/// `b` over `f`'s registers; the compiler's --no-fuse GELU.
void gelu(ProgramBuilder& b, const Frame& f);

/// The same GELU as a standalone program over the conventional registers.
Program gelu();

/// Elementwise SiLU x*sigmoid(x) — an activation the paper's hardware did
/// not ship with, expressible in the same ISA (the run-time
/// programmability argument of Section I). Appends the micro-program (no
/// halt) to `b` over `f`'s registers; the compiler's --no-fuse SiLU.
void silu(ProgramBuilder& b, const Frame& f);

/// The same SiLU as a standalone program over the conventional registers.
Program silu();

/// Row-wise RMSNorm (Llama-family: x * gamma / rms(x)); expects kGamma as
/// a (1 x cols) row vector. Cheaper than LayerNorm: no mean pass.
Program rmsnorm(int rows, int cols, float eps = 1e-5F);

}  // namespace bfpsim::kernels
