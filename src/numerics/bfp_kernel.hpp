// Vectorized bit-exact bfp tile-product kernels and the fused functional
// GEMM behind ProcessingUnit::gemm_bfp8_fast.
//
// Why this can be fast *and* bit-exact: a bfp tile product is pure integer
// arithmetic — Z[i][j] = sum_k X.man[i][k] * Y.man[k][j] with int16
// mantissas and no rounding (Eqn 2). Integer addition is associative, so
// any blocking, unrolling, or SIMD re-association of the k-reduction
// produces the *same* integer, and the downstream PSU alignment/truncation
// (Eqn 3) is kept in its original sequential bk order. Every tier is
// therefore bit-identical to bfp_gemm_reference by construction, and the
// differential harness (tests/test_golden_diff.cpp) pins it against the
// independent scalar golden model anyway.
//
// Tiers (runtime-dispatched; every tier present in every build):
//   kScalar   the reference-shaped triple loop on raw pointers — the
//             baseline the bench measures speedups against.
//   kBlocked  strength-reduced blocked loop over a transposed Y tile with
//             int32 accumulation where the format's mantissa width proves
//             it cannot overflow (unroll-by-4 inner dot).
//   kSimd     platform vectors on the same transposed layout:
//             SSE2 _mm_madd_epi16 / AVX2 _mm256_madd_epi16 (pair-product
//             accumulate, exact in int32 by the same width argument) or
//             ARM NEON vmlal_s16. Compiled when __SSE2__/__AVX2__/
//             __ARM_NEON are available; AVX2 additionally gated on a
//             runtime CPUID check so one binary serves both CPU classes.
//             On AVX2 with 8-deep, 8-wide blocks (bfp8) and the default
//             32-bit PSU carrier, the GEMM runs each output tile's whole
//             k-reduction in one call: products and the Eqn-3 merges stay
//             in eight int32 registers, shifted arithmetically (a count of
//             31 or more fills with the sign, which is asr() for
//             int32-valued sums), with the carrier overflow found by an
//             int32-add sign test and thrown once at the end of the tile.
//             Every other carrier width takes the per-k-block product plus
//             int64 merge (shifts clamped to 63).
//
// A tier that cannot legally serve a format (mantissas too wide for the
// int32 proof, or a block inner dimension the vector width cannot cover)
// silently degrades to the widest applicable tier — effective_kernel_tier
// exposes the decision for tests and the bench.
#pragma once

#include <cstdint>
#include <vector>

#include "numerics/bfp.hpp"

namespace bfpsim {

class ThreadPool;

/// Kernel implementation tiers, in increasing speed order.
enum class KernelTier {
  kScalar = 0,
  kBlocked = 1,
  kSimd = 2,
};

const char* to_string(KernelTier tier);

/// Is `tier` usable on this build + CPU (independent of format)?
bool kernel_tier_available(KernelTier tier);

/// Every available tier, scalar first.
std::vector<KernelTier> available_kernel_tiers();

/// The fastest available tier.
KernelTier best_kernel_tier();

/// Process-wide default tier used by gemm_bfp8_fast / abft_gemm. Starts at
/// best_kernel_tier(); tests sweep it explicitly.
KernelTier active_kernel_tier();

/// Set the process-wide default. Throws Error if `tier` is unavailable.
void set_active_kernel_tier(KernelTier tier);

/// The tier that will actually run for `fmt` when `requested` is asked
/// for: degrades (kSimd -> kBlocked) when the format's mantissa width or
/// block inner dimension rules the vector path out.
KernelTier effective_kernel_tier(const BfpFormat& fmt, KernelTier requested);

/// One tile product through the selected tier — a drop-in for
/// bfp_matmul_block with identical results and contracts.
WideBlock bfp_tile_product(const BfpBlock& x, const BfpBlock& y,
                           KernelTier tier);

/// As above, writing into `out` (resized as needed) so callers in a loop
/// reuse the wide-mantissa storage instead of reallocating per product.
void bfp_tile_product_into(const BfpBlock& x, const BfpBlock& y,
                           KernelTier tier, WideBlock& out);

/// Fused functional GEMM: same tiling, k-order, PSU alignment/truncation,
/// overflow contract, and dequantization as bfp_gemm_reference — verified
/// bit-identical for every tier, pool size, and shape — but with the tile
/// products strength-reduced/vectorized, the per-k-block WideBlock churn
/// replaced by per-worker reused scratch, and Y tiles staged transposed
/// once per call through the thread-local scratch_arena().
std::vector<float> bfp_gemm_dispatch(const BfpMatrix& a, const BfpMatrix& b,
                                     int logical_rows, int logical_cols,
                                     int psu_bits, KernelTier tier,
                                     ThreadPool* pool = nullptr);

}  // namespace bfpsim
