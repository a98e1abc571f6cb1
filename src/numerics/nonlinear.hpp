// Non-linear transformer functions (SoftMax, GELU, LayerNorm) in two forms:
//
//  * double-precision *references* (the accuracy golden model), and
//  * mul/add-only *approximations* shaped exactly like the programs the fp32
//    vector-processing mode of the PU executes. The fp32 unit supports only
//    multiply and add (Section II); exponent-field manipulation is done by
//    the exponent unit / quantizer, and division runs on the host CPU
//    (Section III-B). Each approximation therefore reports the operation mix
//    it consumed through an OpCounter, which feeds the Table IV analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bfpsim {

/// Tally of primitive operations consumed by a vector-unit program.
struct OpCounter {
  std::uint64_t fp_mul = 0;        ///< fp32 multiplies on the PE array
  std::uint64_t fp_add = 0;        ///< fp32 adds on the shifter/ACC path
  std::uint64_t exp_manip = 0;     ///< exponent-field ops in the EU (2^k scale)
  std::uint64_t host_div = 0;      ///< divisions executed on the host CPU
  std::uint64_t host_other = 0;    ///< other host scalar ops (comparisons etc.)

  std::uint64_t device_flops() const { return fp_mul + fp_add + exp_manip; }
  std::uint64_t total() const {
    return device_flops() + host_div + host_other;
  }
  OpCounter& operator+=(const OpCounter& o);
  bool operator==(const OpCounter&) const = default;
};

/// ---------------- double-precision references ----------------

/// Row-wise numerically-stable softmax over a row-major [rows x cols] matrix.
std::vector<float> softmax_reference(std::span<const float> x, int rows,
                                     int cols);

/// Exact GELU: 0.5 x (1 + erf(x / sqrt 2)).
float gelu_reference(float x);
std::vector<float> gelu_reference(std::span<const float> x);

/// Row-wise LayerNorm with affine parameters gamma/beta (size = cols).
std::vector<float> layernorm_reference(std::span<const float> x, int rows,
                                       int cols, std::span<const float> gamma,
                                       std::span<const float> beta,
                                       float eps = 1e-5F);

/// ---------------- vector-unit-shaped approximations ----------------

/// exp(x) as the vector unit computes it: a degree-16 Chebyshev polynomial
/// (Clenshaw evaluation, mul/add only — the unit has no float-to-int path
/// for a 2^k range reduction) over the clamped post-max-subtraction softmax
/// range [-20, 0]; absolute error ~1e-6, and ~53 device operations per
/// element, which is what makes SoftMax dominate the fp32 latency in
/// Table IV. Inputs outside [-20, 0] are clamped.
float approx_exp(float x, OpCounter* ops = nullptr);

/// Softermax-style fast exp (extension; Stevens et al. [8], the paper's
/// cited direction for its fp32 bottleneck): add a small float-to-int /
/// exponent-injection path next to the EU so exp can split into an integer
/// 2^k (exponent-field add) and a degree-6 polynomial on the fraction —
/// ~15 device ops per element instead of the plain unit's ~53. Requires
/// the "+exp2 unit" hardware option (see resource model).
float approx_exp_split(float x, OpCounter* ops = nullptr);

/// tanh(x) via odd polynomial x * P(x^2) on |x| <= 3.2, clamped to +/-1
/// outside; mul/add only.
float approx_tanh(float x, OpCounter* ops = nullptr);

/// GELU via the standard tanh form with approx_tanh.
float approx_gelu(float x, OpCounter* ops = nullptr);

/// Row-wise softmax as a vector program: max reduction (host compare per
/// element), subtract, approx_exp per element, sum reduction on the ACC,
/// reciprocal on the host (one division per row), scale per element.
/// `fast_exp` switches to the Softermax-style approx_exp_split.
std::vector<float> approx_softmax(std::span<const float> x, int rows,
                                  int cols, OpCounter* ops = nullptr,
                                  bool fast_exp = false);

/// Row-wise LayerNorm as a vector program: mean and variance via ACC
/// reductions (adds + squares), rsqrt on the host (one division per row),
/// then per-element normalize-scale-shift.
std::vector<float> approx_layernorm(std::span<const float> x, int rows,
                                    int cols, std::span<const float> gamma,
                                    std::span<const float> beta,
                                    OpCounter* ops = nullptr,
                                    float eps = 1e-5F);

/// Elementwise GELU over a span, accumulating op counts.
std::vector<float> approx_gelu(std::span<const float> x,
                               OpCounter* ops = nullptr);

/// SiLU (x * sigmoid(x)) via the tanh identity with approx_tanh; mul/add
/// only. The SwiGLU gate of Llama-family decoder specs.
float approx_silu(float x, OpCounter* ops = nullptr);
std::vector<float> approx_silu(std::span<const float> x,
                               OpCounter* ops = nullptr);

/// Row-wise RMSNorm (Llama-family normalization: no mean subtraction,
/// x * gamma / rms(x)) — double-precision reference.
std::vector<float> rmsnorm_reference(std::span<const float> x, int rows,
                                     int cols, std::span<const float> gamma,
                                     float eps = 1e-5F);

/// RMSNorm as a vector program: squared row-sum on the ACC, host rsqrt
/// (one division per row), broadcast scale, per-channel gamma.
std::vector<float> approx_rmsnorm(std::span<const float> x, int rows,
                                  int cols, std::span<const float> gamma,
                                  OpCounter* ops = nullptr,
                                  float eps = 1e-5F);

}  // namespace bfpsim
