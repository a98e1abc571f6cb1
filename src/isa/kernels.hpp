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

/// Row-wise softmax over an (rows x cols) input: max-subtract, vec.exp,
/// ACC row-sum, host reciprocal (the Section III-B division), broadcast
/// scale. `softermax` selects the fast split-exp (needs the exp2-unit
/// hardware option; Stevens et al. [8]).
Program softmax(int rows, int cols, bool softermax = false);

/// The registers a kernel binds. The defaults are the conventions above;
/// the graph compiler passes its own to emit a kernel in place.
struct Frame {
  int in = kIn;
  int out = kOut;
  int gamma = kGamma;
  int beta = kBeta;
  int scratch = kScratchBase;
};

/// Row-wise LayerNorm over (rows x cols) with gamma/beta as (1 x cols) row
/// vectors, applied with column broadcasts: appends the micro-program
/// (no halt) to `b` over `f`'s registers. This is the compiler's --no-fuse
/// LayerNorm lowering.
void layernorm(ProgramBuilder& b, int rows, int cols, float eps,
               const Frame& f);

/// The same LayerNorm as a standalone program over the conventional
/// registers.
Program layernorm(int rows, int cols, float eps = 1e-5F);

/// Elementwise GELU (tanh form) over the kIn tensor.
Program gelu();

/// Elementwise SiLU x*sigmoid(x) — an activation the paper's hardware did
/// not ship with, expressible in the same ISA (the run-time
/// programmability argument of Section I).
Program silu();

/// Row-wise RMSNorm (Llama-family: x * gamma / rms(x)); expects kGamma as
/// a (1 x cols) row vector. Cheaper than LayerNorm: no mean pass.
Program rmsnorm(int rows, int cols, float eps = 1e-5F);

}  // namespace bfpsim::kernels
