#include "numerics/bfp_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <string>

#include "common/arena.hpp"
#include "common/bitops.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace bfpsim {

#if BFPSIM_KERNEL_AVX2
namespace detail {
// Implemented in bfp_kernel_avx2.cpp (compiled with -mavx2; only entered
// after a runtime CPUID check).
bool avx2_runtime_supported();
void tile_product_avx2(const std::int16_t* x, const std::int16_t* y,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out);
/// Vectorized Eqn-3 merge: acc[i] = asr(acc[i], shift_acc) +
/// asr(prod[i], shift_p), returning whether any sum escapes psu_bits.
/// Shifts in [0, 63]; the caller clamps (asr() of a larger shift equals
/// asr by 63).
bool psu_merge_avx2(std::int64_t* acc, const std::int64_t* prod,
                    std::size_t n, int shift_acc, int shift_p, int psu_bits);
/// One output tile's whole k-reduction over pair-interleaved Y
/// (interleave_tile8) in a 32-bit PSU carrier: bks k-blocks, A blocks
/// x[bk], per-merge shifts clamped to 31. Writes the rows x 8 sums and
/// returns the overflow flag.
bool tile8_wholek_avx2(const std::int16_t* const* x, int rows,
                       const std::int16_t* yi, const std::int32_t* shifts,
                       int bks, std::int64_t* out);
}  // namespace detail
#endif

namespace {

/// All kernels share one shape: out[i*cols + j] = sum_k x[i*kk + k] *
/// y[k*cols + j], with `yt` the cols x kk transposed copy of y (null for
/// tiers that read y row-major directly).
using TileFn = void (*)(const std::int16_t* x, const std::int16_t* y,
                        const std::int16_t* yt, int rows, int kk, int cols,
                        std::int64_t* out);

/// kScalar: the reference-shaped triple loop (row-major y, int64
/// accumulator) on raw pointers — the pre-vectorization baseline.
void tile_product_scalar(const std::int16_t* x, const std::int16_t* y,
                         const std::int16_t* /*yt*/, int rows, int kk,
                         int cols, std::int64_t* out) {
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      std::int64_t s = 0;
      for (int k = 0; k < kk; ++k) {
        s += static_cast<std::int64_t>(
                 x[static_cast<std::size_t>(i * kk + k)]) *
             y[static_cast<std::size_t>(k * cols + j)];
      }
      out[static_cast<std::size_t>(i * cols + j)] = s;
    }
  }
}

/// kBlocked, narrow formats: both dot operands walk contiguous memory
/// (transposed y), products accumulate in int32 — exact because
/// 2^(mbx+mby-2) * kk < 2^31 was proven before this kernel was selected —
/// with a 4-wide strength-reduced inner loop.
void tile_product_blocked_i32(const std::int16_t* x,
                              const std::int16_t* /*y*/,
                              const std::int16_t* yt, int rows, int kk,
                              int cols, std::int64_t* out) {
  const int k4 = kk & ~3;
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
    for (int j = 0; j < cols; ++j) {
      const std::int16_t* yr = yt + static_cast<std::size_t>(j * kk);
      std::int32_t s0 = 0;
      std::int32_t s1 = 0;
      std::int32_t s2 = 0;
      std::int32_t s3 = 0;
      int k = 0;
      for (; k < k4; k += 4) {
        s0 += static_cast<std::int32_t>(xr[k]) * yr[k];
        s1 += static_cast<std::int32_t>(xr[k + 1]) * yr[k + 1];
        s2 += static_cast<std::int32_t>(xr[k + 2]) * yr[k + 2];
        s3 += static_cast<std::int32_t>(xr[k + 3]) * yr[k + 3];
      }
      std::int32_t s = (s0 + s1) + (s2 + s3);
      for (; k < kk; ++k) {
        s += static_cast<std::int32_t>(xr[k]) * yr[k];
      }
      orow[j] = s;
    }
  }
}

/// kBlocked, wide formats: same blocking, int64 accumulation (a 16-bit
/// mantissa pair can overflow int32 over a 64-deep reduction).
void tile_product_blocked_i64(const std::int16_t* x,
                              const std::int16_t* /*y*/,
                              const std::int16_t* yt, int rows, int kk,
                              int cols, std::int64_t* out) {
  const int k4 = kk & ~3;
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
    for (int j = 0; j < cols; ++j) {
      const std::int16_t* yr = yt + static_cast<std::size_t>(j * kk);
      std::int64_t s0 = 0;
      std::int64_t s1 = 0;
      int k = 0;
      for (; k < k4; k += 4) {
        s0 += static_cast<std::int64_t>(xr[k]) * yr[k] +
              static_cast<std::int64_t>(xr[k + 1]) * yr[k + 1];
        s1 += static_cast<std::int64_t>(xr[k + 2]) * yr[k + 2] +
              static_cast<std::int64_t>(xr[k + 3]) * yr[k + 3];
      }
      std::int64_t s = s0 + s1;
      for (; k < kk; ++k) {
        s += static_cast<std::int64_t>(xr[k]) * yr[k];
      }
      orow[j] = s;
    }
  }
}

#if defined(__SSE2__)

/// Horizontal sum of the four int32 lanes.
inline std::int32_t hsum_epi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

/// kSimd (SSE2): each dot product runs 8 mantissas per _mm_madd_epi16 —
/// eight int16 x int16 products pair-summed into four int32 lanes, lanes
/// accumulated across the k chunks, one horizontal reduce per output.
/// Exact: pair sums and the lane accumulation stay under 2^31 by the
/// int32-safety gate. Requires kk % 8 == 0 (checked at tier resolution).
void tile_product_sse2(const std::int16_t* x, const std::int16_t* /*y*/,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out) {
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
    for (int j = 0; j < cols; ++j) {
      const std::int16_t* yr = yt + static_cast<std::size_t>(j * kk);
      __m128i acc = _mm_setzero_si128();
      for (int k = 0; k < kk; k += 8) {
        const __m128i xv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(xr + k));
        const __m128i yv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(yr + k));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(xv, yv));
      }
      orow[j] = hsum_epi32(acc);
    }
  }
}

#elif defined(__ARM_NEON)

/// kSimd (NEON): vmlal_s16 widening multiply-accumulate, 8 mantissas per
/// step into four int32 lanes. Same int32-safety argument as SSE2.
void tile_product_neon(const std::int16_t* x, const std::int16_t* /*y*/,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out) {
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
    for (int j = 0; j < cols; ++j) {
      const std::int16_t* yr = yt + static_cast<std::size_t>(j * kk);
      int32x4_t acc = vdupq_n_s32(0);
      for (int k = 0; k < kk; k += 8) {
        const int16x8_t xv = vld1q_s16(xr + k);
        const int16x8_t yv = vld1q_s16(yr + k);
        acc = vmlal_s16(acc, vget_low_s16(xv), vget_low_s16(yv));
        acc = vmlal_s16(acc, vget_high_s16(xv), vget_high_s16(yv));
      }
#if defined(__aarch64__)
      orow[j] = vaddvq_s32(acc);
#else
      orow[j] = static_cast<std::int64_t>(vgetq_lane_s32(acc, 0)) +
                vgetq_lane_s32(acc, 1) + vgetq_lane_s32(acc, 2) +
                vgetq_lane_s32(acc, 3);
#endif
    }
  }
}

#endif  // __SSE2__ / __ARM_NEON

bool simd_compiled() {
#if defined(__SSE2__) || defined(__ARM_NEON)
  return true;
#else
  return false;
#endif
}

bool avx2_usable() {
#if BFPSIM_KERNEL_AVX2
  static const bool ok = detail::avx2_runtime_supported();
  return ok;
#else
  return false;
#endif
}

/// Exactness proof for 32-bit product accumulation: |x*y| <= 2^(mbx+mby-2)
/// per product, kk of them, plus one bit of slack for the SIMD pairwise
/// sums — all under 2^31.
bool int32_safe(int mant_bits_sum, int kk) {
  const int lg = std::bit_width(static_cast<unsigned>(std::max(kk, 1)));
  return mant_bits_sum - 2 + lg <= 30;
}

struct Resolved {
  TileFn fn = tile_product_scalar;
  bool transpose = false;
  /// AVX2 + 8-deep, 8-wide tiles: a GEMM with a 32-bit carrier runs each
  /// tile's whole k-reduction in tile8_wholek_avx2.
  bool wholek8 = false;
  KernelTier effective = KernelTier::kScalar;
};

/// Pick the implementation for a (mantissa-width, inner-dim) pair:
/// degrades kSimd -> kBlocked when the vector path cannot serve the
/// format, never the other way.
Resolved resolve_kernel(int mant_bits_sum, int kk, int cols,
                        KernelTier requested) {
  Resolved r;
  if (requested == KernelTier::kScalar) return r;
  const bool i32 = int32_safe(mant_bits_sum, kk);
  if (requested == KernelTier::kSimd && i32 && kk % 8 == 0 &&
      kernel_tier_available(KernelTier::kSimd)) {
#if BFPSIM_KERNEL_AVX2
    if (avx2_usable()) {
      r.fn = detail::tile_product_avx2;
      // The 8x8 fast path is fully vertical over row-major Y.
      r.transpose = !(kk == 8 && cols == 8);
      r.wholek8 = !r.transpose;
      r.effective = KernelTier::kSimd;
      return r;
    }
#endif
#if defined(__SSE2__)
    r.fn = tile_product_sse2;
    r.transpose = true;
    r.effective = KernelTier::kSimd;
    return r;
#elif defined(__ARM_NEON)
    r.fn = tile_product_neon;
    r.transpose = true;
    r.effective = KernelTier::kSimd;
    return r;
#endif
  }
  r.fn = i32 ? tile_product_blocked_i32 : tile_product_blocked_i64;
  r.transpose = true;
  r.effective = KernelTier::kBlocked;
  return r;
}

/// Transpose one kk x cols mantissa tile into cols x kk at `dst`.
void transpose_tile(const std::int16_t* y, int kk, int cols,
                    std::int16_t* dst) {
  for (int k = 0; k < kk; ++k) {
    for (int j = 0; j < cols; ++j) {
      dst[static_cast<std::size_t>(j * kk + k)] =
          y[static_cast<std::size_t>(k * cols + j)];
    }
  }
}

#if BFPSIM_KERNEL_AVX2
/// Stage one 8x8 tile pair-interleaved for the whole-k AVX2 kernel: row p of
/// the 64-int16 output holds, per column j, the adjacent pair
/// (y[2p][j], y[2p+1][j]) — the layout vpmaddwd consumes directly.
void interleave_tile8(const std::int16_t* y, std::int16_t* dst) {
  for (int p = 0; p < 4; ++p) {
    for (int j = 0; j < 8; ++j) {
      dst[static_cast<std::size_t>(p * 16 + 2 * j)] =
          y[static_cast<std::size_t>(2 * p * 8 + j)];
      dst[static_cast<std::size_t>(p * 16 + 2 * j + 1)] =
          y[static_cast<std::size_t>((2 * p + 1) * 8 + j)];
    }
  }
}
#endif

std::atomic<KernelTier>& active_tier_slot() {
  static std::atomic<KernelTier> tier{best_kernel_tier()};
  return tier;
}

}  // namespace

const char* to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kBlocked: return "blocked";
    case KernelTier::kSimd: return "simd";
  }
  return "?";
}

bool kernel_tier_available(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
    case KernelTier::kBlocked:
      return true;
    case KernelTier::kSimd:
      return simd_compiled() || avx2_usable();
  }
  return false;
}

std::vector<KernelTier> available_kernel_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar, KernelTier::kBlocked};
  if (kernel_tier_available(KernelTier::kSimd)) {
    tiers.push_back(KernelTier::kSimd);
  }
  return tiers;
}

KernelTier best_kernel_tier() {
  return kernel_tier_available(KernelTier::kSimd) ? KernelTier::kSimd
                                                  : KernelTier::kBlocked;
}

KernelTier active_kernel_tier() {
  return active_tier_slot().load(std::memory_order_relaxed);
}

void set_active_kernel_tier(KernelTier tier) {
  BFP_REQUIRE(kernel_tier_available(tier),
              "set_active_kernel_tier: tier not available on this build/CPU");
  active_tier_slot().store(tier, std::memory_order_relaxed);
}

KernelTier effective_kernel_tier(const BfpFormat& fmt, KernelTier requested) {
  return resolve_kernel(2 * fmt.mant_bits, fmt.cols, fmt.cols, requested)
      .effective;
}

void bfp_tile_product_into(const BfpBlock& x, const BfpBlock& y,
                           KernelTier tier, WideBlock& out) {
  BFP_REQUIRE(x.fmt.cols == y.fmt.rows,
              "bfp_tile_product: inner dimensions must match");
  const int rows = x.fmt.rows;
  const int kk = x.fmt.cols;
  const int cols = y.fmt.cols;
  out.rows = rows;
  out.cols = cols;
  out.expb = x.expb + y.expb;
  out.psu.resize(static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols));

  const Resolved kr =
      resolve_kernel(x.fmt.mant_bits + y.fmt.mant_bits, kk, cols, tier);
  if (!kr.transpose) {
    kr.fn(x.man.data(), y.man.data(), nullptr, rows, kk, cols,
          out.psu.data());
    return;
  }
  Arena& arena = scratch_arena();
  ArenaScope scope(&arena);
  std::int16_t* yt = arena.alloc_array<std::int16_t>(
      static_cast<std::size_t>(kk) * static_cast<std::size_t>(cols));
  transpose_tile(y.man.data(), kk, cols, yt);
  kr.fn(x.man.data(), y.man.data(), yt, rows, kk, cols, out.psu.data());
}

WideBlock bfp_tile_product(const BfpBlock& x, const BfpBlock& y,
                           KernelTier tier) {
  WideBlock out;
  bfp_tile_product_into(x, y, tier, out);
  return out;
}

std::vector<float> bfp_gemm_dispatch(const BfpMatrix& a, const BfpMatrix& b,
                                     int logical_rows, int logical_cols,
                                     int psu_bits, KernelTier tier,
                                     ThreadPool* pool) {
  BFP_REQUIRE(a.cols == b.rows, "bfp_gemm_dispatch: inner dims must match");
  BFP_REQUIRE(logical_rows <= a.rows && logical_cols <= b.cols,
              "bfp_gemm_dispatch: logical dims exceed padded dims");
  BFP_REQUIRE(a.fmt.cols == b.fmt.rows,
              "bfp_gemm_dispatch: block inner dimensions must match");
  const int rows = a.fmt.rows;
  const int kk = a.fmt.cols;
  const int cols = b.fmt.cols;
  const int brs = a.block_rows();
  const int bcs = b.block_cols();
  const int bks = a.block_cols();
  const std::size_t tile_elems =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  const std::size_t y_elems =
      static_cast<std::size_t>(kk) * static_cast<std::size_t>(cols);

  std::vector<float> out(static_cast<std::size_t>(logical_rows) *
                         static_cast<std::size_t>(logical_cols));
  if (bks == 0) return out;  // an empty k-reduction: zeros, as the reference
  const Resolved kr =
      resolve_kernel(a.fmt.mant_bits + b.fmt.mant_bits, kk, cols, tier);
  // Same validation as the reference, hoisted: psu_accumulate checks its
  // carrier width on the first real accumulation, which every tile of a
  // multi-k-block GEMM reaches before it can overflow.
  if (bks > 1) {
    BFP_REQUIRE(psu_bits >= 8 && psu_bits <= 62,
                "psu_accumulate: psu_bits must be in [8,62]");
  }
#if BFPSIM_KERNEL_AVX2
  const bool wholek = kr.wholek8 && psu_bits == 32;
  // The PSU merge is tier-independent datapath, but kScalar is kept
  // reference-shaped end to end so the bench baseline stays honest.
  const bool avx2_merge =
      kr.effective != KernelTier::kScalar && avx2_usable();
#else
  const bool wholek = false;
#endif

  // Gather A's mantissa pointers and every block exponent once, by
  // row-block for A and by col-block for B, so a tile walks contiguous
  // k-ordered arrays. Y tiles are staged transposed (or pair-interleaved
  // for the whole-k kernel) in the same order, on the calling thread;
  // workers only read them. Scratch-arena lifetime spans the parallel_for
  // below.
  std::vector<const std::int16_t*> a_man(static_cast<std::size_t>(brs) *
                                         static_cast<std::size_t>(bks));
  std::vector<std::int32_t> a_exp(a_man.size());
  std::vector<std::int32_t> b_exp(static_cast<std::size_t>(bcs) *
                                  static_cast<std::size_t>(bks));
  for (int br = 0; br < brs; ++br) {
    for (int bk = 0; bk < bks; ++bk) {
      const BfpBlock& blk = a.block(br, bk);
      const std::size_t i = static_cast<std::size_t>(br * bks + bk);
      a_man[i] = blk.man.data();
      a_exp[i] = blk.expb;
    }
  }
  Arena& arena = scratch_arena();
  ArenaScope scope(&arena);
  std::int16_t* ys_all = nullptr;
  if (kr.transpose || wholek) {
    ys_all = arena.alloc_array<std::int16_t>(b_exp.size() * y_elems);
  }
  for (int bc = 0; bc < bcs; ++bc) {
    for (int bk = 0; bk < bks; ++bk) {
      const BfpBlock& blk = b.block(bk, bc);
      const std::size_t i = static_cast<std::size_t>(bc * bks + bk);
      b_exp[i] = blk.expb;
      if (kr.transpose) {
        transpose_tile(blk.man.data(), kk, cols, ys_all + i * y_elems);
      }
#if BFPSIM_KERNEL_AVX2
      if (wholek) interleave_tile8(blk.man.data(), ys_all + i * y_elems);
#endif
    }
  }

  // One task per output tile, exactly like bfp_gemm_reference: tiles write
  // disjoint `out` regions, each tile's k-reduction runs in ascending bk
  // order with the same truncating PSU alignment and overflow contract.
  // The wide scratch is per-worker and reused across tiles (no per-product
  // WideBlock churn).
  auto compute_tile = [&](std::size_t tile) {
    thread_local std::vector<std::int64_t> acc_buf;
    thread_local std::vector<std::int64_t> prod_buf;
    thread_local std::vector<std::int32_t> shift_buf;
    if (acc_buf.size() < tile_elems) {
      acc_buf.resize(tile_elems);
      prod_buf.resize(tile_elems);
    }
    if (shift_buf.size() < 2 * static_cast<std::size_t>(bks)) {
      shift_buf.resize(2 * static_cast<std::size_t>(bks));
    }
    std::int64_t* acc = acc_buf.data();
    std::int64_t* prod = prod_buf.data();
    std::int32_t* shifts = shift_buf.data();
    const int br = static_cast<int>(tile) / bcs;
    const int bc = static_cast<int>(tile) % bcs;
    const std::size_t a0 = static_cast<std::size_t>(br * bks);
    const std::size_t b0 = static_cast<std::size_t>(bc * bks);

    // Eqn 3: merge bk aligns the smaller-exponent operand right with
    // truncation, and the sum keeps the larger exponent and must fit the
    // PSU carrier. shifts[2bk] and shifts[2bk+1] are merge bk's
    // accumulator and product shifts, clamped where the kernels' asr()
    // saturates.
    std::int32_t acc_exp = a_exp[a0] + b_exp[b0];
    const int max_shift = wholek ? 31 : 63;
    shifts[0] = shifts[1] = 0;
    for (int bk = 1; bk < bks; ++bk) {
      const std::int32_t p_exp = a_exp[a0 + static_cast<std::size_t>(bk)] +
                                 b_exp[b0 + static_cast<std::size_t>(bk)];
      const std::int32_t e = std::max(acc_exp, p_exp);
      shifts[2 * bk] = std::min(e - acc_exp, max_shift);
      shifts[2 * bk + 1] = std::min(e - p_exp, max_shift);
      acc_exp = e;
    }

    // The overflow is thrown after the reduction: which element overflowed
    // is unobservable (the exception carries only psu_bits, and the
    // partially-updated scratch dies with the throw), so deferring it is
    // behaviour-identical to the reference.
    bool overflow = false;
#if BFPSIM_KERNEL_AVX2
    if (wholek) {
      overflow = detail::tile8_wholek_avx2(a_man.data() + a0, rows,
                                           ys_all + b0 * y_elems, shifts,
                                           bks, acc);
    } else
#endif
    {
      for (int bk = 0; bk < bks; ++bk) {
        const std::int16_t* yt =
            kr.transpose
                ? ys_all + (b0 + static_cast<std::size_t>(bk)) * y_elems
                : nullptr;
        kr.fn(a_man[a0 + static_cast<std::size_t>(bk)],
              b.block(bk, bc).man.data(), yt, rows, kk, cols,
              bk == 0 ? acc : prod);
        if (bk == 0) continue;
        const int shift_acc = shifts[2 * bk];
        const int shift_p = shifts[2 * bk + 1];
#if BFPSIM_KERNEL_AVX2
        if (avx2_merge) {
          overflow = detail::psu_merge_avx2(acc, prod, tile_elems, shift_acc,
                                            shift_p, psu_bits);
        } else
#endif
        {
          for (std::size_t idx = 0; idx < tile_elems; ++idx) {
            const std::int64_t s =
                asr(acc[idx], shift_acc) + asr(prod[idx], shift_p);
            overflow |= !fits_signed(s, psu_bits);
            acc[idx] = s;
          }
        }
        if (overflow) break;  // int64 sums may not run on past the carrier
      }
    }
    if (overflow) {
      throw HardwareContractError(
          "psu_accumulate: partial sum overflows " +
          std::to_string(psu_bits) + "-bit PSU carrier");
    }
    // Dequantizing writeback. int64 -> double conversion rounds exactly as
    // in the reference; after that, multiplying by an exact power of two
    // only shifts the exponent, so wide * 2^acc_exp == ldexp(wide,
    // acc_exp) bit for bit whenever the product stays normal. |wide| is in
    // [1, 2^62] and |acc_exp| < 960 keeps every product inside
    // [2^-959, 2^1022] — comfortably normal — so one ldexp(1.0, e) per
    // tile replaces one libm call per element. Outside the window, fall
    // back to per-element ldexp (subnormal/overflow rounding preserved).
    const bool fast_scale = acc_exp > -960 && acc_exp < 960;
    const double scale = fast_scale ? std::ldexp(1.0, acc_exp) : 0.0;
    for (int r = 0; r < rows; ++r) {
      const int gr = br * rows + r;
      if (gr >= logical_rows) break;
      for (int c = 0; c < cols; ++c) {
        const int gc = bc * cols + c;
        if (gc >= logical_cols) continue;
        const double wide =
            static_cast<double>(acc[static_cast<std::size_t>(r * cols + c)]);
        out[static_cast<std::size_t>(gr) *
                static_cast<std::size_t>(logical_cols) +
            static_cast<std::size_t>(gc)] =
            static_cast<float>(fast_scale ? wide * scale
                                          : std::ldexp(wide, acc_exp));
      }
    }
  };

  const std::size_t tiles =
      static_cast<std::size_t>(brs) * static_cast<std::size_t>(bcs);
  if (pool != nullptr) {
    pool->parallel_for(tiles, compute_tile);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) compute_tile(t);
  }
  return out;
}

}  // namespace bfpsim
