// fp32 mantissa slicing (Eqn 5) and the partial-product schedule used by the
// fp32-multiply mode of the processing unit (Fig. 5 (b)).
//
// The 24-bit fp32 mantissa is split into three unsigned 8-bit slices
//     man(i) = man[8i+7 : 8i],  i in {0,1,2}
// so that
//     man_x * man_y = sum_{i,j} man_x(i) * man_y(j) << 8(i+j).
// Of the nine partial products the least significant one ((0,0)) is omitted
// to fit the 8-row PE array; the remaining eight are computed one per PE row
// and summed through the DSP cascade. To keep the cascade a pure adder
// chain, inputs are *pre-shifted* (split between the X and Y operand ports)
// instead of post-shifting products.
//
// This header is the single source of truth for that schedule: the
// cycle-accurate ProcessingUnit and the layout converter walk it term by
// term. The library's fp32 datapath (fp32_mul_sliced) computes the same sum
// in closed form, (man_x*man_y - man_x(0)*man_y(0)) >> 8, which equals the
// schedule's sum exactly: every kept term is a multiple of 2^8 on the
// full-product grid. tests/test_slices.cpp keeps the term-by-term walk as
// the oracle that pins the two together.
//
// The aligned add has two forms. The span kernel fp32_add_aligned(x, y,
// out) is the fast path every elementwise bias/residual add runs through
// (an AVX2 8-lane body at the simd kernel tier); the scalar
// fp32_add_aligned(x, y) is its oracle, which it must match bit for bit
// and refusal for refusal, and the form serial accumulation chains use.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "numerics/fp32.hpp"

namespace bfpsim {

/// Number of 8-bit slices per fp32 mantissa.
inline constexpr int kNumSlices = 3;
/// Partial products kept (3*3 minus the omitted least-significant one).
inline constexpr int kNumPartialProducts = 8;
/// The common factor-out shift: every kept product's raw shift 8(i+j) is at
/// least 8, so the hardware works with relative shifts 8(i+j) - 8.
inline constexpr int kDroppedShift = 8;

/// The three unsigned 8-bit slices of a 24-bit mantissa, LSB slice first.
struct MantissaSlices {
  std::array<std::uint16_t, kNumSlices> s{};

  std::uint16_t operator[](int i) const {
    return s[static_cast<std::size_t>(i)];
  }
};

/// Split a (< 2^24) mantissa into slices. Inverse of join_slices.
MantissaSlices slice_mantissa(std::uint32_t man24);

/// Reassemble a 24-bit mantissa from slices.
std::uint32_t join_slices(const MantissaSlices& sl);

/// One row's worth of the fp32-multiply schedule.
struct PartialProductTerm {
  int xi = 0;        ///< X-slice index (0 = LSB slice)
  int yj = 0;        ///< Y-slice index
  int rel_shift = 0; ///< 8*(xi+yj) - kDroppedShift, in {0,8,16,24}
  int pre_shift_x = 0;  ///< left-shift applied to the X slice at the PE input
  int pre_shift_y = 0;  ///< left-shift applied to the Y slice at the PE input
};

/// The fixed 8-entry schedule, one term per PE row (row 0 first). The
/// pre-shift split respects the DSP48E2 port widths: an 8-bit slice shifted
/// by pre_shift_x must fit the 27-bit A:D path and by pre_shift_y the 18-bit
/// B path (Section II-D: max total pre-shift is 24 bits).
const std::array<PartialProductTerm, kNumPartialProducts>&
fp32_mul_schedule();

/// Exact integer partial-product sum of the schedule:
///   sum = (man_x * man_y - man_x(0)*man_y(0)) >> 8
/// — what the PE column accumulates, in closed form. Both mantissas must
/// be < 2^24. Always a non-negative value below 2^40.
inline std::uint64_t sliced_mantissa_product(std::uint32_t man_x,
                                             std::uint32_t man_y) {
  BFP_REQUIRE((man_x | man_y) < (std::uint32_t{1} << kFp32MantBits),
              "sliced_mantissa_product: mantissas must fit 24 bits");
  const std::uint64_t full = std::uint64_t{man_x} * man_y;
  const std::uint64_t lsb = std::uint64_t{man_x & 0xFFU} * (man_y & 0xFFU);
  return (full - lsb) >> kDroppedShift;
}

/// Reference fp32 multiply through the sliced datapath (Eqn 5): sign via
/// XOR, exponents added in the Exponent Unit, mantissa product from the
/// 8-term schedule, then normalization (RNE or truncation).
///
/// Bit-exact model of what the hardware computes; differs from IEEE a*b by
/// at most the dropped (0,0) partial product plus rounding. NaN/Inf inputs
/// are rejected (the accelerator never produces them; division & friends run
/// on the host per Section III-B).
inline float fp32_mul_sliced(float x, float y,
                             bool round_nearest_even = true) {
  const Fp32Parts px = decompose(x);
  const Fp32Parts py = decompose(y);
  BFP_REQUIRE(!px.is_nan && !px.is_inf && !py.is_nan && !py.is_inf,
              "fp32_mul_sliced: NaN/Inf operands are not supported by the "
              "accelerator datapath");
  const bool sign = px.sign != py.sign;  // the XOR gate of Section II-B
  if (px.is_zero() || py.is_zero()) {
    return std::bit_cast<float>(sign ? (std::uint32_t{1} << 31) : 0);
  }
  const std::uint64_t sum = sliced_mantissa_product(px.mantissa, py.mantissa);
  // Weighting: x = (-1)^sx * man_x * 2^(ex-127-23), likewise for y, and the
  // schedule drops a factor 2^8, so
  //   x*y = (-1)^s * sum * 2^(ex+ey-254-46+8).
  // compose_normalized treats mantissa bit 23 as weight 2^(be-127), i.e.
  // value = m * 2^(be-150); solve be = ex + ey - 292 + 150.
  const std::int32_t be = px.biased_exp + py.biased_exp - 142;
  return compose_normalized(sign, be, sum, round_nearest_even);
}

/// Reference fp32 add through the align-shift-add datapath (Eqn 6): the
/// smaller-exponent operand's signed mantissa is arithmetic-shifted right by
/// the exponent difference (pure truncation - no guard/round/sticky bits),
/// added in the PSU accumulator, and renormalized.
///
/// `acc_bits` models the accumulator carrier width.
inline float fp32_add_aligned(float x, float y, bool round_nearest_even = true,
                              int acc_bits = 32) {
  const Fp32Parts px = decompose(x);
  const Fp32Parts py = decompose(y);
  BFP_REQUIRE(!px.is_nan && !px.is_inf && !py.is_nan && !py.is_inf,
              "fp32_add_aligned: NaN/Inf operands are not supported by the "
              "accelerator datapath");
  // Align the smaller exponent's signed mantissa right (Eqn 6).
  const std::int32_t e = std::max(px.biased_exp, py.biased_exp);
  const std::int64_t mx = asr(px.signed_mantissa(), e - px.biased_exp);
  const std::int64_t my = asr(py.signed_mantissa(), e - py.biased_exp);
  const std::int64_t s = mx + my;
  BFP_REQUIRE(fits_signed(s, acc_bits),
              "fp32_add_aligned: accumulator overflow");
  const bool sign = s < 0;
  const std::uint64_t mag = sign ? static_cast<std::uint64_t>(-s)
                                 : static_cast<std::uint64_t>(s);
  return compose_normalized(sign, e, mag, round_nearest_even);
}

/// Elementwise out[i] = fp32_add_aligned(x[i], y[i]) (RNE, 32-bit
/// carrier), bit for bit. `out` may alias `x` or `y`. At the simd kernel
/// tier on an AVX2 CPU, eight lanes at a time; an 8-lane group holding a
/// NaN or Inf, the tail and every other tier run the scalar function, so
/// a refusal names the same element with the same text.
void fp32_add_aligned(std::span<const float> x, std::span<const float> y,
                      std::span<float> out);

}  // namespace bfpsim
