// AVX2 body of the span aligned add (fp32_add_aligned over spans, RNE,
// 32-bit carrier), isolated in its own translation unit so it can be
// compiled with -mavx2 while the rest of the binary stays baseline-ISA.
// slices.cpp only calls in here after avx2_runtime_supported() confirms the
// CPU has AVX2, and handles every group this body refuses with the scalar
// fp32_add_aligned (which is inline, so this TU must not instantiate it).
//
// Exactness: each lane runs the scalar datapath's integer steps. Both
// signed mantissas (|m| < 2^24) are arithmetic-shifted right by their
// exponent gap (vpsravd fills with the sign for counts >= 32, which is
// asr() of a 25-bit value), and their sum |s| <= 2^25 - 2 never reaches
// the 32-bit carrier's bound. compose_normalized then needs only two cases:
//   * |s| >= 2^24 (the add carried out): drop one bit with RNE, exponent
//     + 1 — the only rounding an aligned add can need, and a tie whenever
//     the dropped bit is set;
//   * |s| < 2^24: shift left until the MSB sits at bit 23 (its position
//     read from |s|'s exact int->float conversion), stopping at exponent 1
//     where the result underflows into the subnormal encoding.
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace bfpsim {
namespace detail {

std::size_t fp32_add_aligned_avx2(const float* x, const float* y, float* out,
                                  std::size_t n);

#if defined(__AVX2__)

namespace {

/// Hardware fields of eight floats: signed mantissa (hidden bit made
/// explicit, sign folded in) and biased exponent (1 for subnormals/zero).
struct Lanes {
  __m256i signed_mant;
  __m256i exp;
};

inline Lanes decompose8(__m256i bits) {
  const __m256i exp_field =
      _mm256_and_si256(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(0xFF));
  const __m256i is_sub =
      _mm256_cmpeq_epi32(exp_field, _mm256_setzero_si256());
  const __m256i mant = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFFFF)),
      _mm256_andnot_si256(is_sub, _mm256_set1_epi32(0x800000)));
  // sign_epi32 negates where the bit pattern is negative (sign set) and
  // zeroes where it is 0 (+0.0, whose mantissa is 0 anyway).
  return {_mm256_sign_epi32(mant, bits),
          _mm256_max_epi32(exp_field, _mm256_set1_epi32(1))};
}

}  // namespace

std::size_t fp32_add_aligned_avx2(const float* x, const float* y, float* out,
                                  std::size_t n) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i exp_ff = _mm256_set1_epi32(0xFF);
  const __m256i sign_bit = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i by =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    // NaN/Inf (exponent field 0xFF) is refused by the scalar path.
    const __m256i special = _mm256_or_si256(
        _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srli_epi32(bx, 23), exp_ff),
                           exp_ff),
        _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srli_epi32(by, 23), exp_ff),
                           exp_ff));
    if (_mm256_testz_si256(special, special) == 0) break;

    const Lanes lx = decompose8(bx);
    const Lanes ly = decompose8(by);
    const __m256i e = _mm256_max_epi32(lx.exp, ly.exp);
    const __m256i s = _mm256_add_epi32(
        _mm256_srav_epi32(lx.signed_mant, _mm256_sub_epi32(e, lx.exp)),
        _mm256_srav_epi32(ly.signed_mant, _mm256_sub_epi32(e, ly.exp)));
    const __m256i mag = _mm256_abs_epi32(s);

    // Carry-out: |s| in [2^24, 2^25) keeps its top 24 bits, RNE on the one
    // dropped bit (a tie: round up to even).
    const __m256i carry =
        _mm256_cmpgt_epi32(mag, _mm256_set1_epi32(0xFFFFFF));
    const __m256i half = _mm256_srli_epi32(mag, 1);
    const __m256i m_carry = _mm256_add_epi32(
        half, _mm256_and_si256(_mm256_and_si256(mag, half), one));

    // Otherwise normalize left: MSB index from the exponent field of |s|'s
    // float conversion (exact below 2^24; |s| = 0 is masked to +0 below).
    const __m256i msb = _mm256_sub_epi32(
        _mm256_srli_epi32(_mm256_castps_si256(_mm256_cvtepi32_ps(mag)), 23),
        _mm256_set1_epi32(127));
    __m256i lsh = _mm256_sub_epi32(_mm256_set1_epi32(23), msb);
    __m256i e_out = _mm256_sub_epi32(e, lsh);
    // Underflow: the exponent stops at 1 and the MSB falls below bit 23.
    const __m256i under = _mm256_cmpgt_epi32(one, e_out);
    lsh = _mm256_blendv_epi8(lsh, _mm256_sub_epi32(e, one), under);
    e_out = _mm256_max_epi32(e_out, one);
    __m256i m = _mm256_sllv_epi32(mag, lsh);

    m = _mm256_blendv_epi8(m, m_carry, carry);
    e_out = _mm256_blendv_epi8(e_out, _mm256_add_epi32(e, one), carry);
    // m is in [2^23, 2^24) (a normal) or below 2^23 with e_out == 1 (a
    // subnormal): one add lays the exponent field over both.
    __m256i r = _mm256_add_epi32(
        _mm256_slli_epi32(_mm256_sub_epi32(e_out, one), 23), m);
    r = _mm256_blendv_epi8(r, _mm256_set1_epi32(0x7F800000),
                           _mm256_cmpgt_epi32(e_out, _mm256_set1_epi32(254)));
    // A zero sum is +0; otherwise the sum's sign.
    r = _mm256_andnot_si256(_mm256_cmpeq_epi32(mag, _mm256_setzero_si256()),
                            _mm256_or_si256(r, _mm256_and_si256(s, sign_bit)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  return i;
}

#else

std::size_t fp32_add_aligned_avx2(const float* /*x*/, const float* /*y*/,
                                  float* /*out*/, std::size_t /*n*/) {
  return 0;
}

#endif

}  // namespace detail
}  // namespace bfpsim
