#include "numerics/fp32.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace bfpsim {

std::uint32_t float_to_bits(float v) {
  return std::bit_cast<std::uint32_t>(v);
}

float bits_to_float(std::uint32_t b) { return std::bit_cast<float>(b); }

float compose(bool sign, std::int32_t biased_exp, std::uint32_t mantissa) {
  BFP_REQUIRE(mantissa < (std::uint32_t{1} << kFp32MantBits),
              "compose: mantissa must fit 24 bits");
  const std::uint32_t sign_bit = sign ? (std::uint32_t{1} << 31) : 0;
  if (mantissa == 0) return bits_to_float(sign_bit);

  // Normalize: bring the MSB of mantissa to bit 23.
  std::int64_t e = biased_exp;
  std::uint64_t m = mantissa;
  while (m < (std::uint64_t{1} << kFp32FracBits) && e > 1) {
    m <<= 1;
    --e;
  }
  while (m >= (std::uint64_t{1} << kFp32MantBits)) {
    m >>= 1;  // only possible via caller's unnormalized input; truncate
    ++e;
  }
  if (e >= 0xFF) {
    return bits_to_float(sign_bit | (0xFFu << kFp32FracBits));  // inf
  }
  if (m < (std::uint64_t{1} << kFp32FracBits)) {
    // Still unnormalized at e == 1: subnormal encoding (exp field 0).
    return bits_to_float(sign_bit | static_cast<std::uint32_t>(m));
  }
  const std::uint32_t frac =
      static_cast<std::uint32_t>(m) & static_cast<std::uint32_t>(low_mask(kFp32FracBits));
  return bits_to_float(sign_bit |
                       (static_cast<std::uint32_t>(e) << kFp32FracBits) |
                       frac);
}

std::int64_t ulp_distance(float a, float b) {
  BFP_REQUIRE(std::isfinite(a) && std::isfinite(b),
              "ulp_distance: operands must be finite");
  auto to_ordered = [](float v) {
    const auto bits = static_cast<std::int64_t>(float_to_bits(v));
    // Map sign-magnitude encoding onto a monotone integer line.
    return (bits & 0x80000000LL) ? (0x80000000LL - bits) : bits;
  };
  const std::int64_t d = to_ordered(a) - to_ordered(b);
  return d < 0 ? -d : d;
}

float random_finite_fp32(Rng& rng) {
  for (;;) {
    std::uint32_t bits = rng.bits32();
    if (((bits >> kFp32FracBits) & 0xFF) == 0xFF) {
      bits &= ~(0x80u << kFp32FracBits);  // clamp exponent below 255
    }
    const float v = bits_to_float(bits);
    if (std::isfinite(v)) return v;
  }
}

float random_normal_fp32(Rng& rng, int min_biased_exp, int max_biased_exp) {
  BFP_REQUIRE(min_biased_exp >= 1 && max_biased_exp <= 254 &&
                  min_biased_exp <= max_biased_exp,
              "random_normal_fp32: exponent range must be within [1,254]");
  const auto exp_field = static_cast<std::uint32_t>(
      rng.uniform_int(min_biased_exp, max_biased_exp));
  const std::uint32_t frac = rng.bits32() & static_cast<std::uint32_t>(low_mask(kFp32FracBits));
  const std::uint32_t sign = (rng.bits32() & 1u) << 31;
  return bits_to_float(sign | (exp_field << kFp32FracBits) | frac);
}

std::string fp32_fields(float v) {
  const Fp32Parts p = decompose(v);
  std::ostringstream os;
  os << "s=" << (p.sign ? 1 : 0) << " e=" << p.biased_exp << " m=0x"
     << to_hex(p.mantissa, kFp32MantBits);
  if (p.is_nan) os << " (nan)";
  if (p.is_inf) os << " (inf)";
  return os.str();
}

}  // namespace bfpsim
