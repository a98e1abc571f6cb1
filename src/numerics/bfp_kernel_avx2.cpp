// AVX2 tile-product kernel, isolated in its own translation unit so it can
// be compiled with -mavx2 while the rest of the binary stays baseline-ISA.
// bfp_kernel.cpp only calls in here after avx2_runtime_supported() confirms
// the CPU actually has AVX2, so one binary serves both CPU classes.
//
// Exactness: identical argument to the SSE2 kernel — _mm256_madd_epi16
// pair-sums int16 products into int32 lanes, and the int32-safety gate
// (checked before this kernel is ever selected) proves no pair sum or lane
// accumulation can reach 2^31. The final horizontal reduce is plain integer
// addition, so the result equals the scalar k-ordered sum bit-for-bit.
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace bfpsim {
namespace detail {

bool avx2_runtime_supported() {
#if defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if defined(__AVX2__)

namespace {

/// Horizontal sum of the eight int32 lanes of a 256-bit vector.
inline std::int32_t hsum_epi32_256(__m256i v) {
  __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Horizontal sum of the four int32 lanes of a 128-bit vector.
inline std::int32_t hsum_epi32_128(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

}  // namespace

void tile_product_avx2(const std::int16_t* x, const std::int16_t* y,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out);

void tile_product_avx2(const std::int16_t* x, const std::int16_t* y,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out) {
  if (kk == 8 && cols == 8) {
    // bfp8's 8x8 tile, fully vertical: sign-extend the eight row-major Y
    // rows to int32 once (they all fit in registers), then each output row
    // is eight broadcast-multiply-accumulates — no horizontal sums, no
    // transpose. Exact: every product and the 8-deep int32 accumulation
    // are covered by the int32-safety gate.
    __m256i yrow[8];
    for (int k = 0; k < 8; ++k) {
      yrow[k] = _mm256_cvtepi16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(y + static_cast<std::size_t>(k) * 8)));
    }
    for (int i = 0; i < rows; ++i) {
      // Broadcast each of the row's eight mantissas from registers: one
      // 16->32 convert, two lane swizzles, then an in-lane shuffle per
      // element (cheaper than eight memory set1 broadcasts).
      const __m256i xr32 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(x + static_cast<std::size_t>(i) * 8)));
      const __m256i xlo = _mm256_permute2x128_si256(xr32, xr32, 0x00);
      const __m256i xhi = _mm256_permute2x128_si256(xr32, xr32, 0x11);
      __m256i acc = _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0x00), yrow[0]);
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0x55), yrow[1]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0xAA), yrow[2]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0xFF), yrow[3]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0x00), yrow[4]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0x55), yrow[5]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0xAA), yrow[6]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0xFF), yrow[7]));
      std::int64_t* orow = out + static_cast<std::size_t>(i) * 8;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(orow),
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(orow + 4),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
    }
    return;
  }
  if (kk == 8 && cols % 2 == 0) {
    // bfp8's 8x8 tile: one row of x is exactly one 128-bit load. Broadcast
    // it to both 256-bit lanes and multiply against *two* transposed Y
    // columns per madd — lane 0 reduces to dot(i,j), lane 1 to dot(i,j+1).
    for (int i = 0; i < rows; ++i) {
      const __m128i xr = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          x + static_cast<std::size_t>(i * kk)));
      const __m256i xv = _mm256_broadcastsi128_si256(xr);
      std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
      for (int j = 0; j < cols; j += 2) {
        const __m256i yv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            yt + static_cast<std::size_t>(j * kk)));
        const __m256i p = _mm256_madd_epi16(xv, yv);
        orow[j] = hsum_epi32_128(_mm256_castsi256_si128(p));
        orow[j + 1] = hsum_epi32_128(_mm256_extracti128_si256(p, 1));
      }
    }
    return;
  }
  const int k16 = kk & ~15;
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
    for (int j = 0; j < cols; ++j) {
      const std::int16_t* yr = yt + static_cast<std::size_t>(j * kk);
      __m256i acc = _mm256_setzero_si256();
      int k = 0;
      for (; k < k16; k += 16) {
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xr + k));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yr + k));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
      }
      std::int32_t s = hsum_epi32_256(acc);
      for (; k < kk; k += 8) {
        const __m128i xv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(xr + k));
        const __m128i yv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(yr + k));
        s += hsum_epi32_128(_mm_madd_epi16(xv, yv));
      }
      orow[j] = s;
    }
  }
}

namespace {

/// 4-lane arithmetic shift right by a uniform count s in [0, 63] (AVX2 has
/// no vpsraq): asr(v, s) == ((v >>logical s) ^ m) - m with m = 1 << (63-s).
/// The xor re-plants the shifted-down sign bit, the subtract extends it;
/// s = 63 leaves 0 or -1, which is asr() for every larger shift too.
inline __m256i asr_epi64(__m256i v, int s, __m256i m) {
  const __m256i u = _mm256_srl_epi64(v, _mm_cvtsi32_si128(s));
  return _mm256_sub_epi64(_mm256_xor_si256(u, m), m);
}

/// Whole-k tile of at most eight rows (see tile8_wholek_avx2 below). The
/// only way a merge can escape the 32-bit carrier is an int32 wrap, caught
/// by the sign test (a ^ s) & (q ^ s).
bool tile8_wholek(const std::int16_t* const* x, int row0, int rows,
                  const std::int16_t* yi, const std::int32_t* shifts, int bks,
                  std::int64_t* out) {
  __m256i acc[8];
  __m256i bad = _mm256_setzero_si256();
  for (int bk = 0; bk < bks; ++bk) {
    const std::int16_t* yb = yi + static_cast<std::size_t>(bk) * 64;
    const __m256i yp0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yb));
    const __m256i yp1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yb + 16));
    const __m256i yp2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yb + 32));
    const __m256i yp3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yb + 48));
    const std::int16_t* xb = x[bk] + static_cast<std::size_t>(row0) * 8;
    const std::size_t sh = 2 * static_cast<std::size_t>(bk);
    const __m256i sa = _mm256_set1_epi32(shifts[sh]);
    const __m256i sp = _mm256_set1_epi32(shifts[sh + 1]);
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      if (i >= rows) break;
      // x row as four int32 pair-slots, broadcast per pair from registers.
      const __m256i xv = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              xb + static_cast<std::size_t>(i) * 8)));
      __m256i p = _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0x00), yp0);
      p = _mm256_add_epi32(
          p, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0x55), yp1));
      p = _mm256_add_epi32(
          p, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0xAA), yp2));
      p = _mm256_add_epi32(
          p, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0xFF), yp3));
      if (bk == 0) {  // the first product is taken unchecked, as in Eqn 3
        acc[i] = p;
        continue;
      }
      const __m256i a = _mm256_srav_epi32(acc[i], sa);
      const __m256i q = _mm256_srav_epi32(p, sp);
      const __m256i s = _mm256_add_epi32(a, q);
      bad = _mm256_or_si256(
          bad, _mm256_and_si256(_mm256_xor_si256(a, s),
                                _mm256_xor_si256(q, s)));
      acc[i] = s;
    }
  }
  for (int i = 0; i < rows && i < 8; ++i) {
    std::int64_t* orow = out + static_cast<std::size_t>(i) * 8;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(orow),
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[i])));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(orow + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc[i], 1)));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(bad)) != 0;
}

}  // namespace

bool tile8_wholek_avx2(const std::int16_t* const* x, int rows,
                       const std::int16_t* yi, const std::int32_t* shifts,
                       int bks, std::int64_t* out);

/// One output tile's whole k-reduction (Eqn 2 products fused with the
/// Eqn-3 PSU merge) in a 32-bit PSU carrier, with the partial sums held in
/// int32 registers. Tile k-block bk reads A block x[bk] (rows x 8,
/// row-major) and B block yi + 64*bk, pre-staged pair-interleaved
/// (interleave_tile8 in bfp_kernel.cpp): slot j of 256-bit row p holds the
/// int16 pair (y[2p][j], y[2p+1][j]), so one vpmaddwd against the
/// broadcast x pair (x[i][2p], x[i][2p+1]) adds both k-levels to all eight
/// outputs at once, exact in int32 by the safety gate. shifts[2bk] and
/// shifts[2bk+1] are merge bk's accumulator and product alignment shifts
/// (entries 0 and 1 are unused), clamped to 31: an int32 arithmetic shift
/// fills with the sign from 31 on, which equals asr() for int32-valued
/// operands. Writes the rows x 8 sums, widened, to `out` and returns
/// whether any merge overflowed the carrier (which element overflowed is
/// not observable: the caller throws and the sums die with the throw).
bool tile8_wholek_avx2(const std::int16_t* const* x, int rows,
                       const std::int16_t* yi, const std::int32_t* shifts,
                       int bks, std::int64_t* out) {
  bool overflow = false;
  for (int row0 = 0; row0 < rows; row0 += 8) {
    overflow |= tile8_wholek(x, row0, rows - row0, yi, shifts, bks,
                             out + static_cast<std::size_t>(row0) * 8);
  }
  return overflow;
}

bool psu_merge_avx2(std::int64_t* acc, const std::int64_t* prod,
                    std::size_t n, int shift_acc, int shift_p, int psu_bits);

bool psu_merge_avx2(std::int64_t* acc, const std::int64_t* prod,
                    std::size_t n, int shift_acc, int shift_p, int psu_bits) {
  const __m256i ma =
      _mm256_set1_epi64x(std::int64_t{1} << (63 - shift_acc));
  const __m256i mp = _mm256_set1_epi64x(std::int64_t{1} << (63 - shift_p));
  // fits_signed(s, b) <=> asr(s, b-1) is 0 or -1.
  const int sign_shift = psu_bits - 1;
  const __m256i msign =
      _mm256_set1_epi64x(std::int64_t{1} << (63 - sign_shift));
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prod + i));
    const __m256i s =
        _mm256_add_epi64(asr_epi64(a, shift_acc, ma), asr_epi64(p, shift_p, mp));
    const __m256i top = asr_epi64(s, sign_shift, msign);
    const __m256i ok = _mm256_or_si256(
        _mm256_cmpeq_epi64(top, _mm256_setzero_si256()),
        _mm256_cmpeq_epi64(top, ones));
    bad = _mm256_or_si256(bad, _mm256_xor_si256(ok, ones));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), s);
  }
  bool overflow = _mm256_movemask_epi8(bad) != 0;
  for (; i < n; ++i) {
    const std::int64_t s =
        (acc[i] >> shift_acc) + (prod[i] >> shift_p);
    const std::int64_t top = s >> sign_shift;
    overflow |= !(top == 0 || top == -1);
    acc[i] = s;
  }
  return overflow;
}

#else  // !defined(__AVX2__)

// Registered but never selected: avx2_runtime_supported() returns false, so
// these bodies are unreachable. They exist so the symbols resolve when the
// toolchain accepted -mavx2 at configure time but the macro test failed.
void tile_product_avx2(const std::int16_t*, const std::int16_t*,
                       const std::int16_t*, int, int, int, std::int64_t*) {}
bool tile8_wholek_avx2(const std::int16_t* const*, int, const std::int16_t*,
                       const std::int32_t*, int, std::int64_t*) {
  return false;
}
bool psu_merge_avx2(std::int64_t*, const std::int64_t*, std::size_t, int,
                    int, int) {
  return false;
}

#endif  // __AVX2__

}  // namespace detail
}  // namespace bfpsim
