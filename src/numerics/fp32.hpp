// IEEE-754 binary32 bit-level decomposition used throughout the fp32
// emulation path (Fig. 1 of the paper).
//
// The hardware treats an fp32 operand as
//   * an 8-bit biased exponent (handled by the Exponent Unit), and
//   * a 24-bit mantissa with the hidden bit made explicit and the sign bit
//     "fused into the mantissa field" (signed-magnitude), handled by the PE
//     array / shifters.
// This header provides the exact decomposition/composition and utility
// queries (ULP distance etc.) needed to validate that path bit-for-bit.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace bfpsim {

/// Width constants of the binary32 format.
inline constexpr int kFp32ExpBits = 8;
inline constexpr int kFp32FracBits = 23;
inline constexpr int kFp32MantBits = 24;  ///< incl. hidden bit
inline constexpr int kFp32Bias = 127;

/// Decomposed binary32 value as the hardware sees it.
///
/// For normal numbers `mantissa` carries the hidden bit, i.e. it lies in
/// [2^23, 2^24). For subnormals the hidden bit is absent (mantissa < 2^23)
/// and `biased_exp` is reported as 1 so that value = (-1)^sign *
/// mantissa * 2^(biased_exp - bias - 23) holds uniformly for all finite
/// inputs. Zero has mantissa == 0.
struct Fp32Parts {
  bool sign = false;
  std::int32_t biased_exp = 0;   ///< 1..254 for normals/subnormals-as-1
  std::uint32_t mantissa = 0;    ///< 24-bit magnitude incl. hidden bit
  bool is_nan = false;
  bool is_inf = false;

  bool is_zero() const { return !is_nan && !is_inf && mantissa == 0; }

  /// Mantissa with sign folded in (signed magnitude converted to an
  /// ordinary signed integer): what the paper calls the "24-bit
  /// signed-magnitude mantissa" viewed as a number.
  std::int64_t signed_mantissa() const {
    return sign ? -static_cast<std::int64_t>(mantissa)
                : static_cast<std::int64_t>(mantissa);
  }
};

/// Decompose a float into hardware fields. NaN/Inf are flagged; the
/// accelerator does not produce them in normal operation but the simulator
/// must refuse to mangle them silently.
inline Fp32Parts decompose(float v) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t exp_field = (bits >> kFp32FracBits) & 0xFFU;
  const std::uint32_t frac = bits & ((std::uint32_t{1} << kFp32FracBits) - 1);
  Fp32Parts p;
  p.sign = (bits >> 31) != 0;
  if (exp_field == 0xFF) {
    p.is_nan = frac != 0;
    p.is_inf = frac == 0;
    p.biased_exp = 0xFF;
    p.mantissa = frac;
  } else if (exp_field == 0) {
    // Subnormal or zero: no hidden bit, effective exponent is 1.
    p.biased_exp = 1;
    p.mantissa = frac;
  } else {
    p.biased_exp = static_cast<std::int32_t>(exp_field);
    p.mantissa = frac | (std::uint32_t{1} << kFp32FracBits);
  }
  return p;
}

/// Compose a float from sign / biased exponent / 24-bit mantissa.
///
/// `mantissa` must be < 2^24. If it is not normalized (top bit clear) the
/// value is interpreted literally, producing a subnormal-style encoding when
/// biased_exp == 1 or being renormalized first otherwise. Overflowing
/// exponents return +/-inf; underflow flushes through the subnormal range.
float compose(bool sign, std::int32_t biased_exp, std::uint32_t mantissa);

/// Compose from an unnormalized wide mantissa: normalizes `mantissa64`
/// (a non-negative value up to 2^62) so its MSB lands at bit 23, adjusting
/// `biased_exp` accordingly, with round-to-nearest-even or truncation on the
/// bits shifted out. A shift of 63 or more drops every bit in both modes.
///
/// Mantissa bit 23 weighs 2^(biased_exp - 127): the value is mantissa64 *
/// 2^(biased_exp - 150). Results below the normal range land in the
/// subnormal encoding; exponents past 254 give +/-inf.
inline float compose_normalized(bool sign, std::int32_t biased_exp,
                                std::uint64_t mantissa64,
                                bool round_nearest_even) {
  const std::uint32_t sign_bit = sign ? (std::uint32_t{1} << 31) : 0;
  if (mantissa64 == 0) return std::bit_cast<float>(sign_bit);
  // Shift that brings the MSB to bit 23 (>0: right; <0: left).
  int shift = 63 - std::countl_zero(mantissa64) - kFp32FracBits;
  std::int64_t e = std::int64_t{biased_exp} + shift;
  // Underflow into the subnormal range: shift so the effective exponent is
  // 1 and let the top bit fall below bit 23.
  if (e < 1) {
    shift += static_cast<int>(1 - e);
    e = 1;
  }
  std::uint64_t m = 0;
  if (shift <= 0) {
    m = mantissa64 << -shift;
  } else if (shift < 63) {
    m = mantissa64 >> shift;
    if (round_nearest_even) {
      const std::uint64_t dropped =
          mantissa64 & ((std::uint64_t{1} << shift) - 1);
      const std::uint64_t half = std::uint64_t{1} << (shift - 1);
      if (dropped > half || (dropped == half && (m & 1) != 0)) ++m;
    }
    // Rounding may carry out: 0xFFFFFF + ulp -> 0x1000000.
    if (m >= (std::uint64_t{1} << kFp32MantBits)) {
      m >>= 1;
      ++e;
    }
  }
  if (e >= 0xFF) {
    return std::bit_cast<float>(sign_bit | (0xFFU << kFp32FracBits));
  }
  // m is in [2^23, 2^24) (a normal), or below 2^23 with e == 1 (a
  // subnormal or zero): one add lays the exponent field over both.
  return std::bit_cast<float>(
      sign_bit |
      static_cast<std::uint32_t>(((e - 1) << kFp32FracBits) +
                                 static_cast<std::int64_t>(m)));
}

/// Bit-pattern reinterpretations.
std::uint32_t float_to_bits(float v);
float bits_to_float(std::uint32_t b);

/// Distance in units-in-the-last-place between two finite floats, computed
/// on the monotone integer mapping of the binary32 encoding.
std::int64_t ulp_distance(float a, float b);

/// A random *finite* fp32 value with fully random sign/exponent/fraction
/// (exponent clamped away from inf/nan); exercises subnormals too.
float random_finite_fp32(Rng& rng);

/// A random normal (non-subnormal) finite fp32 value with exponent bounded
/// to [min_biased_exp, max_biased_exp].
float random_normal_fp32(Rng& rng, int min_biased_exp = 64,
                         int max_biased_exp = 190);

/// Human-readable field dump, e.g. "s=0 e=134 m=0x8ac3f1".
std::string fp32_fields(float v);

}  // namespace bfpsim
