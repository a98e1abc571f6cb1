#include "numerics/nonlinear.hpp"

// The nonlinear ops (softmax, layernorm, GELU) run on the host-side fp32
// path by design — Section II-E keeps them out of the bfp8 datapath — so
// float accumulation here is the modelled behaviour, not a hazard.
// bfpsim-lint: untag(bit-exact)

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "numerics/fp32.hpp"

namespace bfpsim {

OpCounter& OpCounter::operator+=(const OpCounter& o) {
  fp_mul += o.fp_mul;
  fp_add += o.fp_add;
  exp_manip += o.exp_manip;
  host_div += o.host_div;
  host_other += o.host_other;
  return *this;
}

OpCounter OpCounter::operator*(std::uint64_t n) const {
  return {fp_mul * n, fp_add * n, exp_manip * n, host_div * n,
          host_other * n};
}

std::vector<float> softmax_reference(std::span<const float> x, int rows,
                                     int cols) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "softmax_reference: size must equal rows*cols");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    double mx = row[0];
    for (int c = 1; c < cols; ++c) mx = std::max<double>(mx, row[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) sum += std::exp(row[c] - mx);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(r) * cols + c] =
          static_cast<float>(std::exp(row[c] - mx) / sum);
    }
  }
  return out;
}

float gelu_reference(float x) {
  return static_cast<float>(
      0.5 * static_cast<double>(x) *
      (1.0 + std::erf(static_cast<double>(x) / std::sqrt(2.0))));
}

std::vector<float> gelu_reference(std::span<const float> x) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = gelu_reference(x[i]);
  return out;
}

std::vector<float> layernorm_reference(std::span<const float> x, int rows,
                                       int cols, std::span<const float> gamma,
                                       std::span<const float> beta,
                                       float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "layernorm_reference: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols) &&
                  beta.size() == static_cast<std::size_t>(cols),
              "layernorm_reference: gamma/beta must have `cols` entries");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    double mean = 0.0;
    for (int c = 0; c < cols; ++c) mean += row[c];
    mean /= cols;
    double var = 0.0;
    for (int c = 0; c < cols; ++c) {
      const double d = row[c] - mean;
      var += d * d;
    }
    var /= cols;
    const double inv = 1.0 / std::sqrt(var + eps);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(r) * cols + c] = static_cast<float>(
          (row[c] - mean) * inv * gamma[static_cast<std::size_t>(c)] +
          beta[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

namespace {

// Degree-16 Chebyshev expansion of exp(x) on [-20, 0] (max absolute error
// ~1.0e-6). The fp32 vector mode has only multipliers and adders — no
// float-to-int split for a 2^k range reduction — so exp is evaluated as a
// single polynomial over the clamped post-max-subtraction softmax range,
// with the numerically stable Clenshaw recurrence (safe in fp32, unlike a
// power-basis expansion of this degree).
constexpr double kExpCheb[17] = {
    0.12783333716342871,     0.24252536276891087,
    0.20716160177307499,     0.15966072205968088,
    0.1113651685372663,      0.070568587229867946,
    0.040796581307398473,    0.02161268966098975,
    0.010538815782012772,    0.0047505844097693239,
    0.001987763844428015,    0.00077505672091336198,
    0.00028263905841869263,  9.6722980708590102e-05,
    3.1159308576474402e-05,  9.4769166945480681e-06,
    2.7285584929127354e-06,
};
constexpr int kExpChebDeg = 16;
constexpr double kExpLo = -20.0;
constexpr double kExpHi = 0.0;

// Odd polynomial tanh(x) ~= x * P(x^2) on |x| <= 3.2, clamped to +/-1
// outside; degree-9 least-squares fit in u = x^2 (max abs error ~5.5e-4 on
// the fitted range; the clamp discontinuity at 3.2 is 1 - tanh(3.2) ~
// 3.3e-3, which the GELU form attenuates).
constexpr double kTanhPoly[10] = {
    0.9999244848374702,      -0.3315719436479399,
    0.12627884578548856,     -0.04229571519326887,
    0.01101614451260511,     -0.0020507620153218976,
    0.0002572186400761364,   -2.0418891445702453e-05,
    9.211914622945386e-07,   -1.793533945652337e-08,
};

}  // namespace

float approx_exp(float x, OpCounter* ops) {
  // Clamp into the fitted range: softmax feeds post-max-subtraction values
  // in (-inf, 0], and exp(-20) ~ 2e-9 is zero at fp32 softmax scale.
  const double xc = std::clamp(static_cast<double>(x), kExpLo, kExpHi);
  // Map to t in [-1, 1]: one mul + one add.
  const double t = (2.0 * xc - (kExpLo + kExpHi)) / (kExpHi - kExpLo);
  const double u = 2.0 * t;  // one mul
  // Clenshaw recurrence: one mul + two adds per degree.
  double b0 = 0.0;
  double b1 = 0.0;
  for (int k = kExpChebDeg; k >= 1; --k) {
    const double next = u * b0 - b1 + kExpCheb[k];
    b1 = b0;
    b0 = next;
  }
  double p = t * b0 - b1 + kExpCheb[0];  // one mul + two adds
  // The fitted polynomial can dip ~1e-6 below zero near the clamp edge;
  // probabilities must not (one comparator op).
  if (p < 0.0) p = 0.0;
  if (ops != nullptr) *ops += approx_exp_ops(1);
  return static_cast<float>(p);
}

OpCounter approx_exp_ops(std::uint64_t n) {
  return OpCounter{.fp_mul = 2 + kExpChebDeg + 1,
                   .fp_add = 1 + 2 * kExpChebDeg + 2,
                   .host_other = 2} *  // clamp + negative snap
         n;
}

namespace {
// Degree-6 polynomial for 2^f on f in [0,1) (Taylor-derived least-squares
// fit, max relative error ~2e-8) — used by the Softermax-style extension.
constexpr double kExp2Poly[7] = {
    1.0,
    0.693147180559945,
    0.240226506959101,
    0.0555041086648216,
    0.00961812910762848,
    0.00133335581464284,
    0.000154353039995640,
};
}  // namespace

float approx_exp_split(float x, OpCounter* ops) {
  const float xc = std::clamp(x, -87.0F, 0.0F);
  // t = x * log2(e): one multiply.
  const float t = xc * 1.4426950408889634F;
  // Integer/fraction split + final 2^k scale: the added exponent-injection
  // hardware (two EU-class operations).
  const float kf = std::floor(t);
  const auto k = static_cast<int>(kf);
  const float f = t - kf;  // one add
  double p = kExp2Poly[6];
  for (int i = 5; i >= 0; --i) p = p * f + kExp2Poly[i];  // 6 mul + 6 add
  if (ops != nullptr) *ops += approx_exp_split_ops(1);
  return static_cast<float>(std::ldexp(p, k));
}

OpCounter approx_exp_split_ops(std::uint64_t n) {
  return OpCounter{.fp_mul = 1 + 6, .fp_add = 1 + 6, .exp_manip = 2} * n;
}

float approx_tanh(float x, OpCounter* ops) {
  if (ops != nullptr) *ops += approx_tanh_ops(1);
  if (std::fabs(x) >= 3.2F) return x > 0 ? 1.0F : -1.0F;
  const double x2 = static_cast<double>(x) * x;
  double p = kTanhPoly[9];
  for (int i = 8; i >= 0; --i) p = p * x2 + kTanhPoly[i];
  return static_cast<float>(static_cast<double>(x) * p);
}

OpCounter approx_tanh_ops(std::uint64_t n) {
  return OpCounter{.fp_mul = 1 + 9 + 1,  // x2, Horner, final x*P
                   .fp_add = 9,
                   .host_other = 1} *  // range comparator
         n;
}

float approx_gelu(float x, OpCounter* ops) {
  // 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
  const double xd = x;
  const double inner = 0.7978845608028654 * (xd + 0.044715 * xd * xd * xd);
  const float t = approx_tanh(static_cast<float>(inner));
  if (ops != nullptr) *ops += approx_gelu_ops(1);
  return static_cast<float>(0.5 * xd * (1.0 + static_cast<double>(t)));
}

OpCounter approx_gelu_ops(std::uint64_t n) {
  // x^2, x^3, 0.044715*, sqrt(2/pi)*, 0.5 * x *; x + ..., 1 + t.
  OpCounter per = approx_tanh_ops(1);
  per += OpCounter{.fp_mul = 4 + 2, .fp_add = 1 + 1};
  return per * n;
}

std::vector<float> approx_gelu(std::span<const float> x, OpCounter* ops) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = approx_gelu(x[i]);
  if (ops != nullptr) *ops += approx_gelu_ops(x.size());
  return out;
}

float approx_silu(float x, OpCounter* ops) {
  // x * sigmoid(x) with sigmoid(x) = 0.5 * (1 + tanh(x / 2)).
  const float t = approx_tanh(0.5F * x);
  if (ops != nullptr) *ops += approx_silu_ops(1);
  return static_cast<float>(static_cast<double>(x) * 0.5 *
                            (1.0 + static_cast<double>(t)));
}

OpCounter approx_silu_ops(std::uint64_t n) {
  // x / 2 as 0.5 * x, 0.5 *, x *; 1 + t.
  OpCounter per = approx_tanh_ops(1);
  per += OpCounter{.fp_mul = 1 + 2, .fp_add = 1};
  return per * n;
}

std::vector<float> approx_silu(std::span<const float> x, OpCounter* ops) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = approx_silu(x[i]);
  if (ops != nullptr) *ops += approx_silu_ops(x.size());
  return out;
}

std::vector<float> approx_softmax(std::span<const float> x, int rows,
                                  int cols, OpCounter* ops, bool fast_exp) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "approx_softmax: size must equal rows*cols");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    auto* orow = out.data() + static_cast<std::size_t>(r) * cols;
    float mx = row[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    float sum = 0.0F;
    for (int c = 0; c < cols; ++c) {
      const float e =
          fast_exp ? approx_exp_split(row[c] - mx) : approx_exp(row[c] - mx);
      orow[c] = e;
      sum += e;
    }
    const float inv = 1.0F / sum;  // host division (Section III-B)
    for (int c = 0; c < cols; ++c) orow[c] *= inv;
  }
  if (ops != nullptr) *ops += approx_softmax_ops(rows, cols, fast_exp);
  return out;
}

OpCounter approx_softmax_ops(int rows, int cols, bool fast_exp) {
  const auto n = static_cast<std::uint64_t>(cols);
  // Per row: the max compares, the exps, subtract + sum adds, one host
  // reciprocal and the scale multiplies.
  OpCounter row = fast_exp ? approx_exp_split_ops(n) : approx_exp_ops(n);
  row += OpCounter{.fp_mul = n, .fp_add = 2 * n, .host_div = 1,
                   .host_other = n};
  return row * static_cast<std::uint64_t>(rows);
}

std::vector<float> approx_layernorm(std::span<const float> x, int rows,
                                    int cols, std::span<const float> gamma,
                                    std::span<const float> beta,
                                    OpCounter* ops, float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "approx_layernorm: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols) &&
                  beta.size() == static_cast<std::size_t>(cols),
              "approx_layernorm: gamma/beta must have `cols` entries");
  std::vector<float> out(x.size());
  const float invn = 1.0F / static_cast<float>(cols);  // compile-time const
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    auto* orow = out.data() + static_cast<std::size_t>(r) * cols;
    float sum = 0.0F;
    float sumsq = 0.0F;
    for (int c = 0; c < cols; ++c) {
      sum += row[c];
      sumsq += row[c] * row[c];
    }
    const float mean = sum * invn;
    const float var = std::max(0.0F, sumsq * invn - mean * mean);
    const float inv = 1.0F / std::sqrt(var + eps);  // host rsqrt
    for (int c = 0; c < cols; ++c) {
      orow[c] = (row[c] - mean) * inv * gamma[static_cast<std::size_t>(c)] +
                beta[static_cast<std::size_t>(c)];
    }
  }
  if (ops != nullptr) *ops += approx_layernorm_ops(rows, cols);
  return out;
}

OpCounter approx_layernorm_ops(int rows, int cols) {
  const auto n = static_cast<std::uint64_t>(cols);
  // Per row: sum + sum-of-squares reductions, mean/variance (3 mul, 2
  // add), one host rsqrt, then normalize-scale-shift per element.
  const OpCounter row{.fp_mul = n + 3 + 2 * n,
                      .fp_add = 2 * n + 2 + 2 * n,
                      .host_div = 1};
  return row * static_cast<std::uint64_t>(rows);
}

std::vector<float> rmsnorm_reference(std::span<const float> x, int rows,
                                     int cols, std::span<const float> gamma,
                                     float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "rmsnorm_reference: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols),
              "rmsnorm_reference: gamma must have `cols` entries");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    double ms = 0.0;
    for (int c = 0; c < cols; ++c) {
      ms += static_cast<double>(row[c]) * row[c];
    }
    ms /= cols;
    const double inv = 1.0 / std::sqrt(ms + eps);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(r) * cols + c] = static_cast<float>(
          row[c] * inv * gamma[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

std::vector<float> approx_rmsnorm(std::span<const float> x, int rows,
                                  int cols, std::span<const float> gamma,
                                  OpCounter* ops, float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "approx_rmsnorm: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols),
              "approx_rmsnorm: gamma must have `cols` entries");
  std::vector<float> out(x.size());
  const float invn = 1.0F / static_cast<float>(cols);
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    auto* orow = out.data() + static_cast<std::size_t>(r) * cols;
    float sumsq = 0.0F;
    for (int c = 0; c < cols; ++c) sumsq += row[c] * row[c];
    const float inv = 1.0F / std::sqrt(sumsq * invn + eps);  // host rsqrt
    for (int c = 0; c < cols; ++c) {
      orow[c] = row[c] * inv * gamma[static_cast<std::size_t>(c)];
    }
  }
  if (ops != nullptr) *ops += approx_rmsnorm_ops(rows, cols);
  return out;
}

OpCounter approx_rmsnorm_ops(int rows, int cols) {
  const auto n = static_cast<std::uint64_t>(cols);
  // Per row: squared row-sum, the mean-square scale (1 mul, 1 add), one
  // host rsqrt, then the broadcast scale and gamma per element.
  const OpCounter row{.fp_mul = n + 1 + 2 * n, .fp_add = n + 1, .host_div = 1};
  return row * static_cast<std::uint64_t>(rows);
}

}  // namespace bfpsim
