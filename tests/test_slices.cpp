// Tests for fp32 mantissa slicing (Eqn 5) and the sliced multiply / aligned
// add datapaths, including ULP-error bounds against IEEE arithmetic.
#include "numerics/slices.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/dsp48e2.hpp"
#include "fp32_boundaries.hpp"
#include "numerics/bfp_kernel.hpp"
#include "numerics/fp32.hpp"

namespace bfpsim {
namespace {

TEST(Slices, SliceJoinRoundTrip) {
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const auto m = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << 24) - 1));
    EXPECT_EQ(join_slices(slice_mantissa(m)), m);
  }
}

TEST(Slices, SliceValues) {
  const MantissaSlices s = slice_mantissa(0xABCDEFu);
  EXPECT_EQ(s[0], 0xEF);
  EXPECT_EQ(s[1], 0xCD);
  EXPECT_EQ(s[2], 0xAB);
}

TEST(Slices, ScheduleHasEightTermsCoveringAllButLsb) {
  const auto& sched = fp32_mul_schedule();
  bool seen[3][3] = {};
  for (const auto& t : sched) {
    EXPECT_FALSE(t.xi == 0 && t.yj == 0) << "LSB product must be omitted";
    EXPECT_FALSE(seen[t.xi][t.yj]) << "duplicate term";
    seen[t.xi][t.yj] = true;
    EXPECT_EQ(t.rel_shift, 8 * (t.xi + t.yj) - kDroppedShift);
    EXPECT_EQ(t.pre_shift_x + t.pre_shift_y, t.rel_shift);
  }
  int count = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (seen[i][j]) ++count;
    }
  }
  EXPECT_EQ(count, 8);
}

TEST(Slices, PreShiftedSlicesFitDspPorts) {
  // Section II-D: "the 27-bit & 18-bit input widths of DSP48E2 support such
  // pre-shifting without encountering overflow" — verify for the maximal
  // slice value 0xFF.
  for (const auto& t : fp32_mul_schedule()) {
    const std::int64_t x = std::int64_t{0xFF} << t.pre_shift_x;
    const std::int64_t y = std::int64_t{0xFF} << t.pre_shift_y;
    EXPECT_TRUE(fits_signed(x, kDspAWidth))
        << "xi=" << t.xi << " shift=" << t.pre_shift_x;
    EXPECT_TRUE(fits_signed(y, kDspBWidth))
        << "yj=" << t.yj << " shift=" << t.pre_shift_y;
  }
}

TEST(Slices, MaxTotalPreShiftIs24) {
  int max_shift = 0;
  for (const auto& t : fp32_mul_schedule()) {
    max_shift = std::max(max_shift, t.rel_shift);
  }
  EXPECT_EQ(max_shift, 24);  // Section II-D's stated maximum
}

TEST(Slices, SlicedProductEqualsFullProductMinusLsbTerm) {
  Rng rng(22);
  for (int i = 0; i < 5000; ++i) {
    const auto mx = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << 24) - 1));
    const auto my = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << 24) - 1));
    const std::uint64_t full =
        static_cast<std::uint64_t>(mx) * my;
    const std::uint64_t lsb = static_cast<std::uint64_t>(mx & 0xFF) *
                              (my & 0xFF);
    EXPECT_EQ(sliced_mantissa_product(mx, my), (full - lsb) >> 8);
  }
}

TEST(SlicedMul, ExactForSmallMantissas) {
  // Products whose exact result fits 24 bits and whose LSB slices are zero
  // are computed exactly.
  EXPECT_FLOAT_EQ(fp32_mul_sliced(2.0F, 3.0F), 6.0F);
  EXPECT_FLOAT_EQ(fp32_mul_sliced(-2.0F, 3.0F), -6.0F);
  EXPECT_FLOAT_EQ(fp32_mul_sliced(0.5F, 0.25F), 0.125F);
  EXPECT_FLOAT_EQ(fp32_mul_sliced(1.5F, -1.5F), -2.25F);
}

TEST(SlicedMul, ZeroHandling) {
  EXPECT_EQ(fp32_mul_sliced(0.0F, 123.456F), 0.0F);
  EXPECT_TRUE(std::signbit(fp32_mul_sliced(-0.0F, 2.0F)));
  EXPECT_TRUE(std::signbit(fp32_mul_sliced(5.0F, -0.0F)));
}

TEST(SlicedMul, RejectsSpecials) {
  EXPECT_THROW(
      fp32_mul_sliced(std::numeric_limits<float>::infinity(), 1.0F), Error);
  EXPECT_THROW(
      fp32_mul_sliced(1.0F, std::numeric_limits<float>::quiet_NaN()), Error);
}

TEST(SlicedMul, WithinOneUlpOfIeee) {
  // Dropping the (0,0) partial product perturbs the 48-bit product by less
  // than 2^16, i.e. below half an output ulp except at rounding boundaries:
  // the sliced result is within 1 ulp of the IEEE product.
  Rng rng(23);
  std::int64_t worst = 0;
  for (int i = 0; i < 20000; ++i) {
    const float x = random_normal_fp32(rng, 90, 160);
    const float y = random_normal_fp32(rng, 90, 160);
    const float ieee = x * y;
    if (!std::isfinite(ieee) || std::fabs(ieee) <
        std::numeric_limits<float>::min()) {
      continue;  // stay within the normal range for the ULP metric
    }
    const float got = fp32_mul_sliced(x, y, /*round_nearest_even=*/true);
    const std::int64_t d = ulp_distance(got, ieee);
    worst = std::max(worst, d);
    ASSERT_LE(d, 1) << fp32_fields(x) << " * " << fp32_fields(y);
  }
  // The error is not always zero (the dropped term matters sometimes).
  EXPECT_GE(worst, 0);
}

TEST(SlicedMul, TruncationIsAtMostTwoUlps) {
  Rng rng(24);
  for (int i = 0; i < 10000; ++i) {
    const float x = random_normal_fp32(rng, 90, 160);
    const float y = random_normal_fp32(rng, 90, 160);
    const float ieee = x * y;
    if (!std::isfinite(ieee) || std::fabs(ieee) <
        std::numeric_limits<float>::min()) {
      continue;
    }
    const float got = fp32_mul_sliced(x, y, /*round_nearest_even=*/false);
    ASSERT_LE(ulp_distance(got, ieee), 2);
  }
}

TEST(AlignedAdd, ExactWhenExponentsMatch) {
  EXPECT_FLOAT_EQ(fp32_add_aligned(1.5F, 1.25F), 2.75F);
  EXPECT_FLOAT_EQ(fp32_add_aligned(-1.5F, 1.25F), -0.25F);
  EXPECT_FLOAT_EQ(fp32_add_aligned(3.0F, -3.0F), 0.0F);
}

TEST(AlignedAdd, TruncationErrorBounded) {
  Rng rng(25);
  for (int i = 0; i < 20000; ++i) {
    const float x = random_normal_fp32(rng, 110, 140);
    const float y = random_normal_fp32(rng, 110, 140);
    const float ieee = x + y;
    const float got = fp32_add_aligned(x, y);
    if (ieee == 0.0F) {
      // Catastrophic cancellation: the aligned path also returns ~0.
      EXPECT_NEAR(got, 0.0F, 1e-30F);
      continue;
    }
    if (std::fabs(ieee) < std::numeric_limits<float>::min()) continue;
    // Heavy cancellation amplifies the dropped alignment bits arbitrarily
    // (no guard bits in this datapath — a documented deviation from IEEE);
    // bound the error only away from cancellation.
    if (std::fabs(ieee) < 1e-3F * std::max(std::fabs(x), std::fabs(y))) {
      continue;
    }
    // No guard/round/sticky bits: the alignment truncation costs up to one
    // unit of the pre-normalization grid, which renormalization amplifies
    // by the cancellation factor.
    const double cancel =
        std::max(std::fabs(x), std::fabs(y)) / std::fabs(ieee);
    const auto allowed = static_cast<std::int64_t>(2.0 + 2.0 * cancel);
    ASSERT_LE(ulp_distance(got, ieee), allowed)
        << fp32_fields(x) << " + " << fp32_fields(y);
  }
}

TEST(AlignedAdd, LargeExponentGapReturnsLargerOperand) {
  const float big = 1.0e20F;
  const float small = 1.0e-20F;
  EXPECT_FLOAT_EQ(fp32_add_aligned(big, small), big);
  EXPECT_FLOAT_EQ(fp32_add_aligned(small, big), big);
}


/// ---- closed-form datapath vs the term-by-term oracle ----
///
/// The library computes the sliced mantissa product in closed form and
/// assembles its float in one normalize step. The oracle is the step-by-step
/// datapath: the 8-term schedule walk, the out-of-line field decomposition,
/// and compose_normalized handing its mantissa to compose's renormalizing
/// loops. Both must agree on every bit and on every refusal.

#if defined(BFPSIM_FAST_TESTS)
constexpr int kOraclePairs = 100000;
#else
constexpr int kOraclePairs = 1000000;
#endif

Fp32Parts oracle_decompose(float v) {
  const std::uint32_t bits = float_to_bits(v);
  Fp32Parts p;
  p.sign = (bits >> 31) != 0;
  const std::uint32_t exp_field = (bits >> kFp32FracBits) & 0xFF;
  const std::uint32_t frac =
      bits & static_cast<std::uint32_t>(low_mask(kFp32FracBits));
  if (exp_field == 0xFF) {
    p.is_nan = frac != 0;
    p.is_inf = frac == 0;
    p.biased_exp = 0xFF;
    p.mantissa = frac;
    return p;
  }
  if (exp_field == 0) {
    p.biased_exp = 1;
    p.mantissa = frac;
    return p;
  }
  p.biased_exp = static_cast<std::int32_t>(exp_field);
  p.mantissa = frac | (std::uint32_t{1} << kFp32FracBits);
  return p;
}

float oracle_compose(bool sign, std::int32_t biased_exp,
                     std::uint32_t mantissa) {
  BFP_REQUIRE(mantissa < (std::uint32_t{1} << kFp32MantBits),
              "compose: mantissa must fit 24 bits");
  const std::uint32_t sign_bit = sign ? (std::uint32_t{1} << 31) : 0;
  if (mantissa == 0) return bits_to_float(sign_bit);
  std::int64_t e = biased_exp;
  std::uint64_t m = mantissa;
  while (m < (std::uint64_t{1} << kFp32FracBits) && e > 1) {
    m <<= 1;
    --e;
  }
  while (m >= (std::uint64_t{1} << kFp32MantBits)) {
    m >>= 1;
    ++e;
  }
  if (e >= 0xFF) return bits_to_float(sign_bit | (0xFFU << kFp32FracBits));
  if (m < (std::uint64_t{1} << kFp32FracBits)) {
    return bits_to_float(sign_bit | static_cast<std::uint32_t>(m));
  }
  const std::uint32_t frac =
      static_cast<std::uint32_t>(m) &
      static_cast<std::uint32_t>(low_mask(kFp32FracBits));
  return bits_to_float(sign_bit |
                       (static_cast<std::uint32_t>(e) << kFp32FracBits) |
                       frac);
}

float oracle_compose_normalized(bool sign, std::int32_t biased_exp,
                                std::uint64_t mantissa64,
                                bool round_nearest_even) {
  if (mantissa64 == 0) {
    return bits_to_float(sign ? (std::uint32_t{1} << 31) : 0);
  }
  const int msb = 63 - std::countl_zero(mantissa64);
  int shift = msb - kFp32FracBits;
  std::int64_t e = static_cast<std::int64_t>(biased_exp) + shift;
  if (e < 1) {
    shift += static_cast<int>(1 - e);
    e = 1;
  }
  std::uint64_t m;
  if (shift > 0) {
    if (round_nearest_even) {
      m = static_cast<std::uint64_t>(
          asr_rne(static_cast<std::int64_t>(mantissa64), shift));
    } else {
      m = shift >= 64 ? 0 : mantissa64 >> shift;
    }
    if (m >= (std::uint64_t{1} << kFp32MantBits)) {
      m >>= 1;
      ++e;
    }
  } else {
    m = mantissa64 << (-shift);
  }
  if (e >= 0xFF) {
    return bits_to_float((sign ? (std::uint32_t{1} << 31) : 0) |
                         (0xFFU << kFp32FracBits));
  }
  return oracle_compose(sign, static_cast<std::int32_t>(e),
                        static_cast<std::uint32_t>(m));
}

/// The PE column's sum, one schedule term per row.
std::uint64_t oracle_schedule_sum(std::uint32_t man_x, std::uint32_t man_y) {
  const MantissaSlices sx = slice_mantissa(man_x);
  const MantissaSlices sy = slice_mantissa(man_y);
  std::uint64_t sum = 0;
  for (const auto& t : fp32_mul_schedule()) {
    sum += (static_cast<std::uint64_t>(sx[t.xi]) << t.pre_shift_x) *
           (static_cast<std::uint64_t>(sy[t.yj]) << t.pre_shift_y);
  }
  return sum;
}

float oracle_mul(float x, float y, bool round_nearest_even) {
  const Fp32Parts px = oracle_decompose(x);
  const Fp32Parts py = oracle_decompose(y);
  BFP_REQUIRE(!px.is_nan && !px.is_inf && !py.is_nan && !py.is_inf,
              "fp32_mul_sliced: NaN/Inf operands are not supported by the "
              "accelerator datapath");
  const bool sign = px.sign != py.sign;
  if (px.is_zero() || py.is_zero()) return oracle_compose(sign, 1, 0);
  const std::uint64_t sum = oracle_schedule_sum(px.mantissa, py.mantissa);
  return oracle_compose_normalized(
      sign, px.biased_exp + py.biased_exp - 142, sum, round_nearest_even);
}

float oracle_add(float x, float y, bool round_nearest_even, int acc_bits) {
  const Fp32Parts px = oracle_decompose(x);
  const Fp32Parts py = oracle_decompose(y);
  BFP_REQUIRE(!px.is_nan && !px.is_inf && !py.is_nan && !py.is_inf,
              "fp32_add_aligned: NaN/Inf operands are not supported by the "
              "accelerator datapath");
  const std::int32_t e = std::max(px.biased_exp, py.biased_exp);
  const std::int64_t s = asr(px.signed_mantissa(), e - px.biased_exp) +
                         asr(py.signed_mantissa(), e - py.biased_exp);
  BFP_REQUIRE(fits_signed(s, acc_bits),
              "fp32_add_aligned: accumulator overflow");
  const bool sign = s < 0;
  const std::uint64_t mag = sign ? static_cast<std::uint64_t>(-s)
                                 : static_cast<std::uint64_t>(s);
  return oracle_compose_normalized(sign, e, mag, round_nearest_even);
}

/// A result bit pattern, or the refusal's message without the
/// "(requirement ... failed at file:line)" suffix that names the source.
struct Outcome {
  bool threw = false;
  std::uint32_t bits = 0;
  std::string what;

  bool operator==(const Outcome&) const = default;
};

template <typename F>
Outcome outcome_of(F&& f) {
  Outcome o;
  try {
    o.bits = float_to_bits(f());
  } catch (const Error& e) {
    const std::string w = e.what();
    o.threw = true;
    o.what = w.substr(0, w.find(" (requirement"));
  }
  return o;
}

/// Compares both operations in both rounding modes; the aligned add at the
/// default 32-bit carrier always and at `narrow_acc` too when it is set.
void expect_oracle_match(float x, float y, bool narrow_acc, int* throws) {
  for (const bool rne : {true, false}) {
    const Outcome mul = outcome_of([&] { return fp32_mul_sliced(x, y, rne); });
    ASSERT_EQ(mul, outcome_of([&] { return oracle_mul(x, y, rne); }))
        << fp32_fields(x) << " * " << fp32_fields(y) << " rne=" << rne;
    *throws += mul.threw ? 1 : 0;
    for (const int acc_bits : {32, 26, 24}) {
      if (acc_bits != 32 && !narrow_acc) continue;
      const Outcome add =
          outcome_of([&] { return fp32_add_aligned(x, y, rne, acc_bits); });
      ASSERT_EQ(add, outcome_of([&] {
                  return oracle_add(x, y, rne, acc_bits);
                }))
          << fp32_fields(x) << " + " << fp32_fields(y) << " rne=" << rne
          << " acc_bits=" << acc_bits;
      *throws += add.threw ? 1 : 0;
    }
  }
}

/// An fp32 with the given exponent field and random sign and fraction.
float with_exponent(Rng& rng, std::uint32_t exp_field) {
  const std::uint32_t r = rng.bits32();
  return bits_to_float((r & 0x80000000U) | (exp_field << kFp32FracBits) |
                       (r & static_cast<std::uint32_t>(low_mask(23))));
}

TEST(SlicedOracle, ClosedFormMatchesScheduleWalkBitForBit) {
  // Operand families: (0) uniformly random finite bit patterns, subnormals
  // included; (1) exponents within 3 of each other, where the aligned add
  // cancels, carries and overflows narrow carriers; (2) subnormals and
  // signed zeros; (3) one NaN/Inf operand (every path must refuse it);
  // (4) mantissa products just under 2^47, where the multiply's rounding
  // carries out of the mantissa.
  // Narrow carriers (acc_bits 26 and 24) run on 2 pairs in 128: at 24 bits
  // almost every normal sum is refused, and refusals are slow.
  Rng rng(2605);
  int throws = 0;
  for (int i = 0; i < kOraclePairs; ++i) {
    float x = random_finite_fp32(rng);
    float y = random_finite_fp32(rng);
    switch (i % 8) {
      case 1:
      case 2:
      case 3: {
        const auto ex = static_cast<std::uint32_t>(rng.uniform_int(1, 254));
        const auto ey = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
            ex + rng.uniform_int(-3, 3), 0, 254));
        x = with_exponent(rng, ex);
        y = with_exponent(rng, ey);
        break;
      }
      case 4:
        x = with_exponent(rng,
                          static_cast<std::uint32_t>(rng.uniform_int(0, 1)));
        y = (i % 64 == 4) ? ((i % 128 == 4) ? 0.0F : -0.0F)
                          : with_exponent(rng, 0);
        break;
      case 5:
        if (i % 512 == 5) {  // a quiet or signalling NaN, or -inf
          const std::uint32_t payload = rng.bits32() & 0x7FFFFFU;
          const float special =
              (i % 1024 == 5 && payload != 0)
                  ? bits_to_float(0x7F800000U | payload)
                  : -std::numeric_limits<float>::infinity();
          ((i / 1024) % 2 == 0 ? x : y) = special;
        }
        break;
      case 6: {
        // Mantissa products just under 2^47: the normalized sum's top 24
        // bits are often all ones, so rounding carries out of the mantissa.
        const auto mx = static_cast<std::uint32_t>(rng.uniform_int(
            std::int64_t{1} << 23, (std::int64_t{1} << 24) - 1));
        const auto my = static_cast<std::uint32_t>(
            ((std::uint64_t{1} << 47) - 1) / mx);
        const auto ex = static_cast<std::uint32_t>(rng.uniform_int(1, 254));
        const auto ey = static_cast<std::uint32_t>(rng.uniform_int(1, 254));
        x = bits_to_float((rng.bits32() & 0x80000000U) | (ex << 23) |
                          (mx & 0x7FFFFFU));
        y = bits_to_float((rng.bits32() & 0x80000000U) | (ey << 23) |
                          (my & 0x7FFFFFU));
        break;
      }
      default:
        break;
    }
    expect_oracle_match(x, y, /*narrow_acc=*/i % 128 <= 1, &throws);
    if (HasFatalFailure()) return;
  }
  const std::vector<float> bounds = boundary_operands();
  for (const float x : bounds) {
    for (const float y : bounds) {
      expect_oracle_match(x, y, /*narrow_acc=*/true, &throws);
      if (HasFatalFailure()) return;
    }
  }
  // The refusal paths were exercised, not only the value paths.
  EXPECT_GT(throws, 0);
}

/// ---- the span aligned add vs its scalar oracle ----
///
/// fp32_add_aligned over spans is the fast path (8 lanes at a time at the
/// simd tier on AVX2); the scalar fp32_add_aligned is its oracle. Every
/// element must carry the oracle's bits, and a vector holding a NaN/Inf
/// must refuse with the oracle's text after writing exactly the elements
/// before it.

#if defined(BFPSIM_FAST_TESTS)
constexpr int kSpanVectors = 2000;
#else
constexpr int kSpanVectors = 20000;
#endif

/// One operand pair from family `f`: (0) random finite bits, subnormals
/// included; (1) exponents within 3 of each other; (2) subnormals, the
/// smallest normals and signed zeros, where a sum underflows; (3) y close
/// to -x, so the sum cancels to a few bits and normalizes far left (into
/// the subnormal range when the exponent is small); (4) equal exponents
/// and signs with large mantissas, so the sum carries out of 24 bits
/// (at exponent 254, into inf), and odd sums round a tie; (5) zeros.
std::pair<float, float> span_pair(Rng& rng, int f) {
  switch (f) {
    case 1: {
      const auto ex = static_cast<std::uint32_t>(rng.uniform_int(1, 254));
      const auto ey = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
          ex + rng.uniform_int(-3, 3), 0, 254));
      return {with_exponent(rng, ex), with_exponent(rng, ey)};
    }
    case 2:
      return {with_exponent(rng,
                            static_cast<std::uint32_t>(rng.uniform_int(0, 2))),
              with_exponent(rng,
                            static_cast<std::uint32_t>(rng.uniform_int(0, 1)))};
    case 3: {
      const float x = with_exponent(
          rng, static_cast<std::uint32_t>(rng.uniform_int(0, 254)));
      const std::uint32_t low = rng.bits32() & 0xFFU;
      return {x, bits_to_float((float_to_bits(x) ^ 0x80000000U) ^ low)};
    }
    case 4: {
      const auto e = static_cast<std::uint32_t>(
          rng.bernoulli(0.1) ? 254 : rng.uniform_int(1, 254));
      const std::uint32_t sign = rng.bits32() & 0x80000000U;
      const std::uint32_t fx = 0x400000U | (rng.bits32() & 0x3FFFFFU);
      const std::uint32_t fy = 0x400000U | (rng.bits32() & 0x3FFFFFU);
      return {bits_to_float(sign | (e << 23) | fx),
              bits_to_float(sign | (e << 23) | fy)};
    }
    case 5:
      return {rng.bernoulli(0.5) ? 0.0F : -0.0F,
              rng.bernoulli(0.5) ? 0.0F : random_finite_fp32(rng)};
    default:
      return {random_finite_fp32(rng), random_finite_fp32(rng)};
  }
}

/// The scalar loop's outcome: the elements written before the first
/// refusal, and that refusal's text (empty when none).
struct SpanOutcome {
  std::vector<std::uint32_t> written;
  std::string refusal;
};

SpanOutcome run_span(const std::function<void(std::vector<float>&)>& add,
                     std::vector<float> out, std::size_t n) {
  SpanOutcome o;
  try {
    add(out);
  } catch (const Error& e) {
    const std::string w = e.what();
    o.refusal = w.substr(0, w.find(" (requirement"));
  }
  // Elements past a refusal are unspecified: keep only those before it.
  for (std::size_t i = 0; i < n; ++i) {
    o.written.push_back(float_to_bits(out[i]));
  }
  return o;
}

/// Checks the span kernel on (x, y) into a fresh output, in place over x
/// and in place over y against the scalar oracle.
void expect_span_matches_scalar(const std::vector<float>& x,
                                const std::vector<float>& y,
                                const std::string& where) {
  SpanOutcome want;
  for (std::size_t i = 0; i < x.size(); ++i) {
    try {
      want.written.push_back(float_to_bits(fp32_add_aligned(x[i], y[i])));
    } catch (const Error& e) {
      const std::string w = e.what();
      want.refusal = w.substr(0, w.find(" (requirement"));
      break;
    }
  }
  const std::size_t n = want.written.size();
  // The first element where `got` departs from the oracle, spelled out.
  auto first_difference = [&](const SpanOutcome& got) -> std::string {
    if (got.refusal != want.refusal) {
      return "refusal '" + got.refusal + "', want '" + want.refusal + "'";
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (got.written[i] != want.written[i]) {
        return "element " + std::to_string(i) + ": " + fp32_fields(x[i]) +
               " + " + fp32_fields(y[i]) + " gave " +
               fp32_fields(bits_to_float(got.written[i])) + ", want " +
               fp32_fields(bits_to_float(want.written[i]));
      }
    }
    return "";
  };
  const SpanOutcome fresh = run_span(
      [&](std::vector<float>& out) { fp32_add_aligned(x, y, out); },
      std::vector<float>(x.size(), 0.0F), n);
  EXPECT_EQ(first_difference(fresh), "") << where << " (separate output)";
  const SpanOutcome over_x = run_span(
      [&](std::vector<float>& out) { fp32_add_aligned(out, y, out); }, x, n);
  EXPECT_EQ(first_difference(over_x), "") << where << " (out == x)";
  const SpanOutcome over_y = run_span(
      [&](std::vector<float>& out) { fp32_add_aligned(x, out, out); }, y, n);
  EXPECT_EQ(first_difference(over_y), "") << where << " (out == y)";
}

/// Restores the process-wide kernel tier when a test ends.
struct TierGuard {
  KernelTier saved = active_kernel_tier();
  ~TierGuard() { set_active_kernel_tier(saved); }
};

TEST(SpanAlignedAdd, MatchesScalarOracleOnEveryTier) {
  const TierGuard guard;
  for (const KernelTier tier : available_kernel_tiers()) {
    set_active_kernel_tier(tier);
    Rng rng(2207);
    int refusals = 0;
    for (int v = 0; v < kSpanVectors; ++v) {
      // Lengths 0..17 cover empty spans, a partial group, one group plus
      // every tail; every 16th vector is long (whole groups in bulk).
      const std::size_t len = v % 16 == 15
                                  ? static_cast<std::size_t>(
                                        rng.uniform_int(64, 200))
                                  : static_cast<std::size_t>(v % 18);
      std::vector<float> x(len);
      std::vector<float> y(len);
      // One family per vector, or per element in a third of the vectors.
      const int family = v % 6;
      const bool mixed = v % 3 == 0;
      for (std::size_t i = 0; i < len; ++i) {
        std::tie(x[i], y[i]) = span_pair(
            rng, mixed ? static_cast<int>(rng.uniform_int(0, 5)) : family);
      }
      // A NaN or Inf at a random position in every 32nd non-empty vector.
      if (len > 0 && v % 32 == 7) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(len) - 1));
        const std::uint32_t payload = rng.bits32() & 0x7FFFFFU;
        (rng.bernoulli(0.5) ? x : y)[at] = bits_to_float(
            (rng.bits32() & 0x80000000U) | 0x7F800000U | payload);
        ++refusals;
      }
      expect_span_matches_scalar(x, y,
                                 std::string(to_string(tier)) + " vector " +
                                     std::to_string(v));
      if (HasFailure()) return;
    }
    EXPECT_GT(refusals, 0);
  }
}

TEST(SpanAlignedAdd, BoundaryPairsMatchScalarOracleOnEveryTier) {
  // Every pair of boundary operands, plus the sums at the carrier's
  // extremes: the largest magnitude (2^25 - 2) and odd ones just below it
  // (carry-out with a rounding tie), and FLT_MAX + FLT_MAX (inf).
  std::vector<float> x;
  std::vector<float> y;
  const std::vector<float> bounds = boundary_operands();
  for (const float a : bounds) {
    for (const float b : bounds) {
      x.push_back(a);
      y.push_back(b);
    }
  }
  const float all_ones = std::nextafterf(2.0F, 0.0F);
  for (const float a : {all_ones, std::nextafterf(all_ones, 0.0F),
                        std::nextafterf(std::nextafterf(all_ones, 0.0F), 0.0F),
                        std::numeric_limits<float>::max()}) {
    for (const float b : {all_ones, std::nextafterf(all_ones, 0.0F),
                          std::numeric_limits<float>::max()}) {
      x.push_back(a);
      y.push_back(b);
      x.push_back(-a);
      y.push_back(-b);
    }
  }
  const TierGuard guard;
  for (const KernelTier tier : available_kernel_tiers()) {
    set_active_kernel_tier(tier);
    expect_span_matches_scalar(x, y, to_string(tier));
  }
}

TEST(SpanAlignedAdd, RefusesUnequalLengths) {
  const std::vector<float> x(9, 1.0F);
  std::vector<float> out(8);
  EXPECT_THROW(fp32_add_aligned(x, std::span(x).first(8), out), Error);
  EXPECT_THROW(fp32_add_aligned(x, x, out), Error);
}

}  // namespace
}  // namespace bfpsim
