// Golden-reference differential harness for the bfp8 MatMul datapath and
// the sliced fp32 multiplier.
//
// The golden model here is written *independently* of src/numerics: plain
// scalar loops over plain arrays, mirroring only the documented contracts
// (quantize_block's smallest-exponent search, Eqn 2's integer dot product,
// Eqn 3's truncating alignment in the PSU). It deliberately avoids
// BfpBlock/WideBlock/psu_accumulate so that a bug in that machinery cannot
// cancel out of the comparison. The cycle-accurate systolic path
// (ProcessingUnit::gemm_bfp8), the fast path (gemm_bfp8_fast), and the
// golden scalar model must agree bit-for-bit on every output float.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fp32_boundaries.hpp"
#include "numerics/bfp.hpp"
#include "numerics/bfp_kernel.hpp"
#include "numerics/fp32.hpp"
#include "numerics/slices.hpp"
#include "pu/processing_unit.hpp"

namespace bfpsim {
namespace {

/// ----------------- independent scalar golden model -----------------

constexpr int kEdge = 8;                 // bfp8 block edge
constexpr std::int64_t kManMax = 127;    // symmetric 8-bit mantissa range
constexpr int kExpMin = -128;            // 8-bit two's-complement exponent
constexpr int kExpMax = 127;

// BFPSIM_FAST_TESTS (set for the "long" ctest label under TSan CI) shrinks
// the seeded sweeps: same case families and seeds, fewer draws.
#if defined(BFPSIM_FAST_TESTS)
constexpr int kGemmFuzzCases = 14;
constexpr int kTierFuzzCases = 16;
constexpr int kTileFuzzCases = 60;
constexpr int kSlicedRandomCases = 4000;
#else
constexpr int kGemmFuzzCases = 50;
constexpr int kTierFuzzCases = 48;
constexpr int kTileFuzzCases = 240;
constexpr int kSlicedRandomCases = 20000;
#endif

/// Scalar mirror of the documented per-element rounding.
std::int64_t golden_round(double scaled, RoundMode mode) {
  switch (mode) {
    case RoundMode::kTruncate: return static_cast<std::int64_t>(
        std::floor(scaled));
    case RoundMode::kNearestEven: return static_cast<std::int64_t>(
        std::nearbyint(scaled));
    case RoundMode::kHalfAway: return static_cast<std::int64_t>(
        std::floor(scaled + 0.5));
  }
  return 0;
}

/// Truncating arithmetic right shift (what the PSU alignment shifter does).
std::int64_t golden_asr(std::int64_t v, int shift) {
  if (shift <= 0) return v;
  if (shift >= 63) return v < 0 ? -1 : 0;
  return v >> shift;  // arithmetic for signed types since C++20
}

/// A quantized matrix in flat form: padded mantissa grid + per-tile
/// exponents. No block objects.
struct GoldenQuant {
  int rows = 0;  ///< padded to a multiple of kEdge
  int cols = 0;
  std::vector<int> expb;          ///< tile grid, row-major
  std::vector<std::int64_t> man;  ///< rows x cols, row-major

  int tile_rows() const { return rows / kEdge; }
  int tile_cols() const { return cols / kEdge; }
  int tile_exp(int tr, int tc) const {
    return expb[static_cast<std::size_t>(tr * tile_cols() + tc)];
  }
  std::int64_t at(int r, int c) const {
    return man[static_cast<std::size_t>(r) * cols + c];
  }
};

/// Quantize per the documented contract: per 8x8 tile of the zero-padded
/// matrix, the shared exponent is the smallest e such that every
/// round(v * 2^-e) fits [-127, 127]; an all-zero tile gets the exponent
/// floor. Search starts at the floor and walks up — no analytic shortcut,
/// so a bug in the library's estimate-and-nudge search would be caught.
GoldenQuant golden_quantize(const std::vector<float>& data, int rows,
                            int cols, RoundMode mode) {
  GoldenQuant q;
  q.rows = ((rows + kEdge - 1) / kEdge) * kEdge;
  q.cols = ((cols + kEdge - 1) / kEdge) * kEdge;
  q.expb.assign(static_cast<std::size_t>(q.tile_rows()) * q.tile_cols(), 0);
  q.man.assign(static_cast<std::size_t>(q.rows) * q.cols, 0);

  std::vector<double> tile(kEdge * kEdge);
  for (int tr = 0; tr < q.tile_rows(); ++tr) {
    for (int tc = 0; tc < q.tile_cols(); ++tc) {
      bool all_zero = true;
      for (int r = 0; r < kEdge; ++r) {
        for (int c = 0; c < kEdge; ++c) {
          const int gr = tr * kEdge + r;
          const int gc = tc * kEdge + c;
          const double v = (gr < rows && gc < cols)
              ? static_cast<double>(
                    data[static_cast<std::size_t>(gr) * cols + gc])
              : 0.0;
          tile[static_cast<std::size_t>(r * kEdge + c)] = v;
          if (v != 0.0) all_zero = false;
        }
      }
      const std::size_t t =
          static_cast<std::size_t>(tr * q.tile_cols() + tc);
      if (all_zero) {
        q.expb[t] = kExpMin;
        continue;
      }
      int e = kExpMin;
      for (;; ++e) {
        EXPECT_LE(e, kExpMax) << "value exceeds bfp8 exponent range";
        bool fits = true;
        for (double v : tile) {
          // Past +-128 every rounding mode lands outside [-127, 127], so the
          // range check comes first: low exponents scale values far beyond
          // int64, where golden_round's cast would overflow.
          const double scaled = std::ldexp(v, -e);
          if (std::fabs(scaled) > 128.0) {
            fits = false;
            break;
          }
          const std::int64_t m = golden_round(scaled, mode);
          if (m < -kManMax || m > kManMax) {
            fits = false;
            break;
          }
        }
        if (fits) break;
      }
      q.expb[t] = e;
      for (int r = 0; r < kEdge; ++r) {
        for (int c = 0; c < kEdge; ++c) {
          q.man[static_cast<std::size_t>(tr * kEdge + r) * q.cols +
                (tc * kEdge + c)] =
              golden_round(
                  std::ldexp(tile[static_cast<std::size_t>(r * kEdge + c)],
                             -e),
                  mode);
        }
      }
    }
  }
  return q;
}

/// Golden GEMM result: dequantized floats plus the per-output-tile final
/// exponent (needed by the fp64 error-bound test).
struct GoldenGemm {
  std::vector<float> c;        ///< m x n, row-major
  std::vector<int> tile_expb;  ///< final accumulator exponent per out tile
  int tile_cols = 0;
};

/// Naive scalar GEMM through the documented bfp8 pipeline: per k-tile
/// integer dot products at exponent ea+eb, accumulated in ascending k order
/// with truncating alignment to the max exponent, 32-bit partial-sum
/// carrier, final dequantization through double.
GoldenGemm golden_gemm(const GoldenQuant& a, const GoldenQuant& b, int m,
                       int n) {
  GoldenGemm g;
  g.c.assign(static_cast<std::size_t>(m) * n, 0.0F);
  g.tile_cols = b.tile_cols();
  g.tile_expb.assign(
      static_cast<std::size_t>(a.tile_rows()) * b.tile_cols(), 0);
  const int kt = a.tile_cols();
  std::int64_t acc[kEdge][kEdge];
  std::int64_t part[kEdge][kEdge];
  for (int tr = 0; tr < a.tile_rows(); ++tr) {
    for (int tc = 0; tc < b.tile_cols(); ++tc) {
      int acc_exp = 0;
      for (int tk = 0; tk < kt; ++tk) {
        const int p_exp = a.tile_exp(tr, tk) + b.tile_exp(tk, tc);
        for (int r = 0; r < kEdge; ++r) {
          for (int c = 0; c < kEdge; ++c) {
            std::int64_t s = 0;
            for (int k = 0; k < kEdge; ++k) {
              s += a.at(tr * kEdge + r, tk * kEdge + k) *
                   b.at(tk * kEdge + k, tc * kEdge + c);
            }
            part[r][c] = s;
          }
        }
        if (tk == 0) {
          std::memcpy(acc, part, sizeof(acc));
          acc_exp = p_exp;
          continue;
        }
        const int e = std::max(acc_exp, p_exp);
        for (int r = 0; r < kEdge; ++r) {
          for (int c = 0; c < kEdge; ++c) {
            const std::int64_t s = golden_asr(acc[r][c], e - acc_exp) +
                                   golden_asr(part[r][c], e - p_exp);
            // 32-bit PSU carrier: the shapes in this harness never
            // overflow it (the library path would throw if they did).
            EXPECT_GE(s, -(std::int64_t{1} << 31));
            EXPECT_LT(s, std::int64_t{1} << 31);
            acc[r][c] = s;
          }
        }
        acc_exp = e;
      }
      g.tile_expb[static_cast<std::size_t>(tr * g.tile_cols + tc)] = acc_exp;
      for (int r = 0; r < kEdge; ++r) {
        const int gr = tr * kEdge + r;
        if (gr >= m) break;
        for (int c = 0; c < kEdge; ++c) {
          const int gc = tc * kEdge + c;
          if (gc >= n) continue;
          g.c[static_cast<std::size_t>(gr) * n + gc] = static_cast<float>(
              std::ldexp(static_cast<double>(acc[r][c]), acc_exp));
        }
      }
    }
  }
  return g;
}

/// Random operands with deliberately mixed per-row scales so different
/// k-tiles land on different block exponents and the alignment-truncation
/// path is actually exercised (uniform data makes every exponent equal and
/// the truncation a no-op).
std::vector<float> mixed_scale_operand(Rng& rng, int rows, int cols) {
  std::vector<float> v(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    const int scale = static_cast<int>(rng.uniform_int(-10, 10));
    for (int c = 0; c < cols; ++c) {
      v[static_cast<std::size_t>(r) * cols + c] =
          std::ldexp(rng.normal(0.0F, 1.0F), scale);
    }
  }
  return v;
}

/// Zero/denormal-heavy operand: most elements are exact zeros, the rest
/// subnormal floats (around 2^-141), with a sprinkle of normals so not
/// every tile collapses to the all-zero exponent-floor case.
std::vector<float> zero_denormal_operand(Rng& rng, int rows, int cols) {
  std::vector<float> v(static_cast<std::size_t>(rows) * cols, 0.0F);
  for (auto& x : v) {
    const std::int64_t u = rng.uniform_int(0, 9);
    if (u < 6) continue;
    if (u < 9) {
      x = std::ldexp(rng.normal(0.0F, 1.0F), -141);  // subnormal
    } else {
      x = rng.normal(0.0F, 1.0F);
    }
  }
  return v;
}

/// Exponent-skew operand: alternate 8-wide blocks along the chosen
/// dimension between scales 2^skew and 2^-skew. At the default skew of 120,
/// successive k-tile products sit ~220+ exponent steps apart and the PSU
/// alignment shift exceeds 62, past every kernel's native shift width (the
/// int64 merge clamps to 63, the whole-k int32 kernel to 31); a skew of 20
/// lands shifts between 31 and 62, where only the int32 clamp is in play.
std::vector<float> exponent_skew_operand(Rng& rng, int rows, int cols,
                                         bool along_cols, int skew = 120) {
  std::vector<float> v(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int block = (along_cols ? c : r) / kEdge;
      const int scale = (block % 2 == 0) ? skew : -skew;
      v[static_cast<std::size_t>(r) * cols + c] =
          std::ldexp(rng.normal(0.0F, 1.0F), scale);
    }
  }
  return v;
}

/// ----------------- satellite 1: golden MatMul differential -----------------

TEST(GoldenDiff, QuantizerMantissaExponentEquality) {
  // The golden scalar quantizer and the library quantizer must agree on
  // every mantissa and every shared exponent, for all rounding modes,
  // including all-zero tiles, padded edges, negatives, and wide scales.
  Rng rng(401);
  const BfpFormat fmt = bfp8_format();
  for (const RoundMode mode : {RoundMode::kNearestEven, RoundMode::kTruncate,
                               RoundMode::kHalfAway}) {
    for (int trial = 0; trial < 12; ++trial) {
      const int rows = static_cast<int>(rng.uniform_int(1, 20));
      const int cols = static_cast<int>(rng.uniform_int(1, 20));
      std::vector<float> data = mixed_scale_operand(rng, rows, cols);
      if (trial % 4 == 0 && !data.empty()) data[0] = 0.0F;
      if (trial % 5 == 0) {
        for (auto& v : data) v = 0.0F;  // all-zero: exponent-floor case
      }
      const GoldenQuant gq = golden_quantize(data, rows, cols, mode);
      const BfpMatrix lib = quantize_matrix(data, rows, cols, fmt, mode);
      ASSERT_EQ(lib.rows, gq.rows);
      ASSERT_EQ(lib.cols, gq.cols);
      for (int tr = 0; tr < gq.tile_rows(); ++tr) {
        for (int tc = 0; tc < gq.tile_cols(); ++tc) {
          const BfpBlock& blk = lib.block(tr, tc);
          ASSERT_EQ(blk.expb, gq.tile_exp(tr, tc))
              << "tile (" << tr << "," << tc << ")";
          for (int r = 0; r < kEdge; ++r) {
            for (int c = 0; c < kEdge; ++c) {
              ASSERT_EQ(static_cast<std::int64_t>(blk.at(r, c)),
                        gq.at(tr * kEdge + r, tc * kEdge + c))
                  << "tile (" << tr << "," << tc << ") elem (" << r << ","
                  << c << ")";
            }
          }
        }
      }
    }
  }
}

TEST(GoldenDiff, ScalarGoldenMatchesSystolicAndFastPaths) {
  // ~50 randomized shape/seed cases: the naive scalar golden, the
  // cycle-accurate systolic path, and the fast path must produce the same
  // float bits for every output element.
  ProcessingUnit pu;
  for (int case_id = 0; case_id < kGemmFuzzCases; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(1000 + case_id));
    const int m = static_cast<int>(rng.uniform_int(1, 33));
    const int k = static_cast<int>(rng.uniform_int(1, 33));
    const int n = static_cast<int>(rng.uniform_int(1, 33));
    const std::vector<float> a = mixed_scale_operand(rng, m, k);
    const std::vector<float> b = mixed_scale_operand(rng, k, n);

    const GoldenQuant qa = golden_quantize(a, m, k, RoundMode::kNearestEven);
    const GoldenQuant qb = golden_quantize(b, k, n, RoundMode::kNearestEven);
    const GoldenGemm want = golden_gemm(qa, qb, m, n);

    const GemmRun systolic = pu.gemm_bfp8(a, m, k, b, n);
    const GemmRun fast = pu.gemm_bfp8_fast(a, m, k, b, n);
    ASSERT_EQ(systolic.c.size(), want.c.size());
    ASSERT_EQ(fast.c.size(), want.c.size());
    for (std::size_t i = 0; i < want.c.size(); ++i) {
      ASSERT_EQ(float_to_bits(systolic.c[i]), float_to_bits(want.c[i]))
          << "case " << case_id << " (" << m << "x" << k << "x" << n
          << ") element " << i << ": systolic " << systolic.c[i]
          << " vs golden " << want.c[i];
      ASSERT_EQ(float_to_bits(fast.c[i]), float_to_bits(want.c[i]))
          << "case " << case_id << " element " << i;
    }
  }
}

TEST(GoldenDiff, ParallelFastPathMatchesScalarGolden) {
  // The differential harness also pins the *parallel* engine: the tiled
  // fast path running on a thread pool must land on the golden bits.
  ProcessingUnit pu;
  ThreadPool pool(8);
  for (int case_id = 0; case_id < 10; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(7000 + case_id));
    const int m = static_cast<int>(rng.uniform_int(9, 40));
    const int k = static_cast<int>(rng.uniform_int(9, 40));
    const int n = static_cast<int>(rng.uniform_int(9, 40));
    const std::vector<float> a = mixed_scale_operand(rng, m, k);
    const std::vector<float> b = mixed_scale_operand(rng, k, n);
    const GoldenGemm want =
        golden_gemm(golden_quantize(a, m, k, RoundMode::kNearestEven),
                    golden_quantize(b, k, n, RoundMode::kNearestEven), m, n);
    const GemmRun got = pu.gemm_bfp8_fast(a, m, k, b, n, &pool);
    ASSERT_EQ(got.c.size(), want.c.size());
    for (std::size_t i = 0; i < want.c.size(); ++i) {
      ASSERT_EQ(float_to_bits(got.c[i]), float_to_bits(want.c[i]))
          << "case " << case_id << " element " << i;
    }
  }
}

TEST(GoldenDiff, SingleKTileIsExactVsFp64) {
  // With k <= 8 there is exactly one k-tile, so no PSU alignment happens:
  // the bfp8 result must equal the fp64-accumulated product of the
  // *quantized* operands exactly (quantization is the only error source).
  ProcessingUnit pu;
  for (int case_id = 0; case_id < 8; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(2000 + case_id));
    const int m = static_cast<int>(rng.uniform_int(1, 16));
    const int k = static_cast<int>(rng.uniform_int(1, 8));
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    const std::vector<float> a = mixed_scale_operand(rng, m, k);
    const std::vector<float> b = mixed_scale_operand(rng, k, n);
    const GoldenQuant qa = golden_quantize(a, m, k, RoundMode::kNearestEven);
    const GoldenQuant qb = golden_quantize(b, k, n, RoundMode::kNearestEven);
    const GemmRun run = pu.gemm_bfp8(a, m, k, b, n);
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < n; ++c) {
        double exact = 0.0;
        for (int kk = 0; kk < k; ++kk) {
          exact += std::ldexp(static_cast<double>(qa.at(r, kk)),
                              qa.tile_exp(r / kEdge, kk / kEdge)) *
                   std::ldexp(static_cast<double>(qb.at(kk, c)),
                              qb.tile_exp(kk / kEdge, c / kEdge));
        }
        ASSERT_EQ(run.c[static_cast<std::size_t>(r) * n + c],
                  static_cast<float>(exact))
            << "case " << case_id << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(GoldenDiff, Fp64AccumulateBoundsAlignmentError) {
  // Multi-k-tile case: the bfp8 result may differ from the fp64-exact
  // product of the quantized operands only by the PSU alignment
  // truncation — each of the (k-tiles - 1) accumulate steps truncates two
  // operands by less than one unit of the step exponent, which never
  // exceeds the tile's final exponent. Bound: 2 * ktiles * 2^final_exp,
  // plus one unit for the final double->float cast.
  ProcessingUnit pu;
  for (int case_id = 0; case_id < 10; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(3000 + case_id));
    const int m = static_cast<int>(rng.uniform_int(1, 24));
    const int k = static_cast<int>(rng.uniform_int(17, 48));  // >= 3 k-tiles
    const int n = static_cast<int>(rng.uniform_int(1, 24));
    const std::vector<float> a = mixed_scale_operand(rng, m, k);
    const std::vector<float> b = mixed_scale_operand(rng, k, n);
    const GoldenQuant qa = golden_quantize(a, m, k, RoundMode::kNearestEven);
    const GoldenQuant qb = golden_quantize(b, k, n, RoundMode::kNearestEven);
    const GoldenGemm golden = golden_gemm(qa, qb, m, n);
    const GemmRun run = pu.gemm_bfp8(a, m, k, b, n);
    const int ktiles = (k + kEdge - 1) / kEdge;
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < n; ++c) {
        double exact = 0.0;
        for (int kk = 0; kk < k; ++kk) {
          exact += std::ldexp(static_cast<double>(qa.at(r, kk)),
                              qa.tile_exp(r / kEdge, kk / kEdge)) *
                   std::ldexp(static_cast<double>(qb.at(kk, c)),
                              qb.tile_exp(kk / kEdge, c / kEdge));
        }
        const int final_exp = golden.tile_expb[static_cast<std::size_t>(
            (r / kEdge) * golden.tile_cols + c / kEdge)];
        const double bound =
            std::ldexp(2.0 * ktiles + 1.0, final_exp);
        const float got = run.c[static_cast<std::size_t>(r) * n + c];
        ASSERT_LE(std::fabs(static_cast<double>(got) - exact), bound)
            << "case " << case_id << " (" << r << "," << c << ") got "
            << got << " exact " << exact;
      }
    }
  }
}

/// --------- dispatch-tier differential fuzz (vectorized kernels) ---------

TEST(GoldenDiff, DispatchTierFuzzBitExactVsGolden) {
  // Every dispatch variant (each available KernelTier plus the in-process
  // reference GEMM) against the independent scalar golden model, across the
  // operand families the fast paths special-case: plain mixed scales,
  // zero/denormal-heavy blocks, max-exponent-skew blocks (PSU alignment
  // shifts > 62, past every kernel's native shift width), and exact
  // multiple-of-8 dims next to ragged ones.
  const BfpFormat fmt = bfp8_format();
  const std::vector<KernelTier> tiers = available_kernel_tiers();
  constexpr int psu_bits = 32;
  for (int case_id = 0; case_id < kTierFuzzCases; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(11000 + case_id));
    const int family = case_id % 4;
    int m, k, n;
    if (family == 3) {  // exact multiples of 8, several k tiles: fused path
      m = 8 * static_cast<int>(rng.uniform_int(1, 4));
      k = 8 * static_cast<int>(rng.uniform_int(2, 5));
      n = 8 * static_cast<int>(rng.uniform_int(1, 4));
    } else {  // ragged dims, including sub-block edges
      m = static_cast<int>(rng.uniform_int(1, 40));
      k = static_cast<int>(rng.uniform_int(1, 40));
      n = static_cast<int>(rng.uniform_int(1, 40));
    }
    std::vector<float> a, b;
    switch (family) {
      case 1:
        a = zero_denormal_operand(rng, m, k);
        b = zero_denormal_operand(rng, k, n);
        break;
      case 2:
        a = exponent_skew_operand(rng, m, k, /*along_cols=*/true);
        b = (case_id % 8 == 2)
                ? exponent_skew_operand(rng, k, n, /*along_cols=*/false)
                : mixed_scale_operand(rng, k, n);
        break;
      default:
        a = mixed_scale_operand(rng, m, k);
        b = mixed_scale_operand(rng, k, n);
        break;
    }
    const GoldenGemm want =
        golden_gemm(golden_quantize(a, m, k, RoundMode::kNearestEven),
                    golden_quantize(b, k, n, RoundMode::kNearestEven), m, n);
    const BfpMatrix am =
        quantize_matrix(a, m, k, fmt, RoundMode::kNearestEven);
    const BfpMatrix bm =
        quantize_matrix(b, k, n, fmt, RoundMode::kNearestEven);
    const std::vector<float> ref = bfp_gemm_reference(am, bm, m, n, psu_bits);
    ASSERT_EQ(ref.size(), want.c.size());
    for (std::size_t i = 0; i < want.c.size(); ++i) {
      ASSERT_EQ(float_to_bits(ref[i]), float_to_bits(want.c[i]))
          << "case " << case_id << " reference element " << i;
    }
    for (const KernelTier tier : tiers) {
      const std::vector<float> got =
          bfp_gemm_dispatch(am, bm, m, n, psu_bits, tier);
      ASSERT_EQ(got.size(), want.c.size());
      for (std::size_t i = 0; i < want.c.size(); ++i) {
        ASSERT_EQ(float_to_bits(got[i]), float_to_bits(want.c[i]))
            << "case " << case_id << " family " << family << " tier "
            << to_string(tier) << " (" << m << "x" << k << "x" << n
            << ") element " << i;
      }
    }
  }
}

TEST(GoldenDiff, ActiveTierSweepThroughFastPath) {
  // set_active_kernel_tier steers the production entry point
  // (gemm_bfp8_fast): every tier must land on the golden bits through the
  // full quantize -> dispatch -> dequantize path, and the setter must
  // round-trip through active_kernel_tier.
  struct TierGuard {
    KernelTier prev = active_kernel_tier();
    ~TierGuard() { set_active_kernel_tier(prev); }
  } guard;
  ProcessingUnit pu;
  for (int case_id = 0; case_id < 6; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(13000 + case_id));
    const int m = static_cast<int>(rng.uniform_int(1, 33));
    const int k = static_cast<int>(rng.uniform_int(1, 33));
    const int n = static_cast<int>(rng.uniform_int(1, 33));
    const std::vector<float> a = mixed_scale_operand(rng, m, k);
    const std::vector<float> b = mixed_scale_operand(rng, k, n);
    const GoldenGemm want =
        golden_gemm(golden_quantize(a, m, k, RoundMode::kNearestEven),
                    golden_quantize(b, k, n, RoundMode::kNearestEven), m, n);
    for (const KernelTier tier : available_kernel_tiers()) {
      set_active_kernel_tier(tier);
      ASSERT_EQ(active_kernel_tier(), tier);
      const GemmRun got = pu.gemm_bfp8_fast(a, m, k, b, n);
      ASSERT_EQ(got.c.size(), want.c.size());
      for (std::size_t i = 0; i < want.c.size(); ++i) {
        ASSERT_EQ(float_to_bits(got.c[i]), float_to_bits(want.c[i]))
            << "case " << case_id << " tier " << to_string(tier)
            << " element " << i;
      }
    }
  }
}

TEST(GoldenDiff, KEdgeAndDegenerateDims) {
  // k = 1 and 1-sized outputs run the single-k-block early path (no PSU
  // merge, and — mirroring the reference — no psu_bits validation); k = 0
  // is rejected up front rather than silently producing something.
  ProcessingUnit pu;
  EXPECT_THROW(pu.gemm_bfp8_fast({}, 1, 0, {}, 1), Error);
  const BfpFormat fmt = bfp8_format();
  const struct {
    int m, k, n;
  } dims[] = {{1, 1, 1}, {1, 1, 17}, {17, 1, 1},
              {1, 9, 1}, {3, 1, 40}, {8, 8, 8}};
  int case_id = 0;
  for (const auto& d : dims) {
    Rng rng(static_cast<std::uint64_t>(17000 + case_id++));
    const std::vector<float> a = mixed_scale_operand(rng, d.m, d.k);
    const std::vector<float> b = mixed_scale_operand(rng, d.k, d.n);
    const GoldenGemm want = golden_gemm(
        golden_quantize(a, d.m, d.k, RoundMode::kNearestEven),
        golden_quantize(b, d.k, d.n, RoundMode::kNearestEven), d.m, d.n);
    const BfpMatrix am =
        quantize_matrix(a, d.m, d.k, fmt, RoundMode::kNearestEven);
    const BfpMatrix bm =
        quantize_matrix(b, d.k, d.n, fmt, RoundMode::kNearestEven);
    for (const KernelTier tier : available_kernel_tiers()) {
      const std::vector<float> got =
          bfp_gemm_dispatch(am, bm, d.m, d.n, 32, tier);
      ASSERT_EQ(got.size(), want.c.size());
      for (std::size_t i = 0; i < want.c.size(); ++i) {
        ASSERT_EQ(float_to_bits(got[i]), float_to_bits(want.c[i]))
            << d.m << "x" << d.k << "x" << d.n << " tier "
            << to_string(tier) << " element " << i;
      }
    }
  }
  // A hand-built empty k-reduction (no public quantizer makes one) gives
  // the reference's zeros on every tier.
  BfpMatrix ak;
  ak.fmt = fmt;
  ak.rows = 8;
  BfpMatrix bk;
  bk.fmt = fmt;
  bk.cols = 8;
  ASSERT_EQ(bfp_gemm_reference(ak, bk, 8, 8, 32),
            std::vector<float>(64, 0.0F));
  for (const KernelTier tier : available_kernel_tiers()) {
    EXPECT_EQ(bfp_gemm_dispatch(ak, bk, 8, 8, 32, tier),
              std::vector<float>(64, 0.0F))
        << to_string(tier);
  }
  // Mismatched inner dims are a contract violation, not a wrong answer.
  Rng rng(17100);
  const BfpMatrix am = quantize_matrix(mixed_scale_operand(rng, 8, 8), 8, 8,
                                       fmt, RoundMode::kNearestEven);
  const BfpMatrix bm = quantize_matrix(mixed_scale_operand(rng, 16, 8), 16, 8,
                                       fmt, RoundMode::kNearestEven);
  EXPECT_THROW(bfp_gemm_dispatch(am, bm, 8, 8, 32, KernelTier::kScalar),
               Error);
}

TEST(GoldenDiff, ThreadSweepBitIdenticalAcrossTiers) {
  // The tiled parallel execution is a pure partition of independent output
  // tiles: every pool size must reproduce the serial bits for every tier,
  // including on exponent-skewed operands whose shifts the kernels clamp.
  const BfpFormat fmt = bfp8_format();
  for (int case_id = 0; case_id < 4; ++case_id) {
    Rng rng(static_cast<std::uint64_t>(19000 + case_id));
    const int m = static_cast<int>(rng.uniform_int(9, 40));
    const int k = static_cast<int>(rng.uniform_int(9, 40));
    const int n = static_cast<int>(rng.uniform_int(9, 40));
    const std::vector<float> a =
        (case_id % 2 == 0)
            ? mixed_scale_operand(rng, m, k)
            : exponent_skew_operand(rng, m, k, /*along_cols=*/true);
    const std::vector<float> b = mixed_scale_operand(rng, k, n);
    const BfpMatrix am =
        quantize_matrix(a, m, k, fmt, RoundMode::kNearestEven);
    const BfpMatrix bm =
        quantize_matrix(b, k, n, fmt, RoundMode::kNearestEven);
    for (const KernelTier tier : available_kernel_tiers()) {
      const std::vector<float> serial =
          bfp_gemm_dispatch(am, bm, m, n, 32, tier);
      for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const std::vector<float> par =
            bfp_gemm_dispatch(am, bm, m, n, 32, tier, &pool);
        ASSERT_EQ(par.size(), serial.size());
        ASSERT_EQ(0, std::memcmp(par.data(), serial.data(),
                                 serial.size() * sizeof(float)))
            << "case " << case_id << " tier " << to_string(tier)
            << " threads " << threads;
      }
    }
  }
}

TEST(GoldenDiff, SimdDegradesWhenFormatRulesItOut) {
  // A tier that cannot legally serve a format degrades, never errors: wide
  // mantissas void the int32-accumulation proof, and an inner dim that is
  // not a vector multiple rules the SIMD dot out.
  const BfpFormat b8 = bfp8_format();
  if (kernel_tier_available(KernelTier::kSimd)) {
    EXPECT_EQ(effective_kernel_tier(b8, KernelTier::kSimd),
              KernelTier::kSimd);
  }
  BfpFormat wide = b8;
  wide.mant_bits = 16;  // 2*16 - 2 + bit_width(8) = 34 > 30
  EXPECT_EQ(effective_kernel_tier(wide, KernelTier::kSimd),
            KernelTier::kBlocked);
  BfpFormat ragged = b8;
  ragged.rows = ragged.cols = 12;  // inner dim % 8 != 0
  EXPECT_EQ(effective_kernel_tier(ragged, KernelTier::kSimd),
            KernelTier::kBlocked);
  EXPECT_EQ(effective_kernel_tier(wide, KernelTier::kScalar),
            KernelTier::kScalar);
  EXPECT_EQ(effective_kernel_tier(wide, KernelTier::kBlocked),
            KernelTier::kBlocked);
}

TEST(GoldenDiff, TileProductAllFormatsAllTiersMatchReference) {
  // bfp_tile_product across non-8x8 block shapes and mantissa widths: the
  // generic SSE2/AVX2/NEON dot kernels, the int32-vs-int64 blocked
  // variants, and the degrade logic must all reproduce bfp_matmul_block
  // exactly — including formats whose mantissa width voids the int32 proof
  // and inner dims of 16/24 (the multi-chunk vector loops).
  Rng rng(2300);
  const int dims[] = {1, 3, 5, 8, 16, 24};
  const int mants[] = {4, 8, 12, 16};
  for (int t = 0; t < kTileFuzzCases; ++t) {
    BfpFormat fx;
    fx.rows = dims[rng.uniform_int(0, 5)];
    fx.cols = dims[rng.uniform_int(0, 5)];
    fx.mant_bits = mants[rng.uniform_int(0, 3)];
    BfpFormat fy;
    fy.rows = fx.cols;
    fy.cols = dims[rng.uniform_int(0, 5)];
    fy.mant_bits = mants[rng.uniform_int(0, 3)];
    BfpBlock x(fx);
    BfpBlock y(fy);
    x.expb = static_cast<std::int32_t>(rng.uniform_int(-20, 20));
    y.expb = static_cast<std::int32_t>(rng.uniform_int(-20, 20));
    for (auto& mv : x.man) {
      mv = static_cast<std::int16_t>(
          rng.uniform_int(-fx.mant_max(), fx.mant_max()));
    }
    for (auto& mv : y.man) {
      mv = static_cast<std::int16_t>(
          rng.uniform_int(-fy.mant_max(), fy.mant_max()));
    }
    const WideBlock want = bfp_matmul_block(x, y);
    for (const KernelTier tier : available_kernel_tiers()) {
      const WideBlock got = bfp_tile_product(x, y, tier);
      ASSERT_EQ(got.rows, want.rows);
      ASSERT_EQ(got.cols, want.cols);
      ASSERT_EQ(got.expb, want.expb);
      ASSERT_EQ(got.psu, want.psu)
          << "case " << t << " tier " << to_string(tier) << " "
          << fx.rows << "x" << fx.cols << "x" << fy.cols << " mant "
          << fx.mant_bits << "+" << fy.mant_bits;
      // The _into form must overwrite stale storage of the wrong shape.
      WideBlock reused(1, 1);
      reused.psu.assign(1, std::int64_t{-777});
      bfp_tile_product_into(x, y, tier, reused);
      ASSERT_EQ(reused.psu, want.psu);
      ASSERT_EQ(reused.expb, want.expb);
    }
  }
}

/// --------- PSU carrier sweep: every tier vs the reference ---------

/// A GEMM's result bits, or the carrier-overflow refusal's message.
struct GemmOutcome {
  bool overflow = false;
  std::string what;
  std::vector<float> c;
};

template <typename F>
GemmOutcome gemm_outcome(F&& f) {
  GemmOutcome o;
  try {
    o.c = f();
  } catch (const HardwareContractError& e) {
    o.overflow = true;
    o.what = e.what();
  }
  return o;
}

void expect_same_outcome(const GemmOutcome& want, const GemmOutcome& got,
                         const std::string& label) {
  ASSERT_EQ(got.overflow, want.overflow) << label;
  ASSERT_EQ(got.what, want.what) << label;
  ASSERT_EQ(got.c.size(), want.c.size()) << label;
  for (std::size_t i = 0; i < want.c.size(); ++i) {
    ASSERT_EQ(float_to_bits(got.c[i]), float_to_bits(want.c[i]))
        << label << " element " << i;
  }
}

TEST(GoldenDiff, PsuCarrierSweepMatchesReference) {
  // Every tier against bfp_gemm_reference across PSU carriers around the
  // whole-k kernel's (it serves psu_bits == 32; every other carrier takes
  // the int64 product + merge path). Families: mixed
  // scales, zero/denormal blocks, exponent skew with shifts >= 63 and in
  // [31, 62], exact multiples of 8, and A blocks of 4 and 16 rows (partial
  // and repeated row groups of the 8-row kernel). Each case lands on the
  // reference's bits or on its HardwareContractError.
  constexpr int kCarriers[] = {8, 16, 24, 31, 32, 33, 48, 62};
  int overflows = 0;
  int values = 0;
  for (const int psu_bits : kCarriers) {
    for (int case_id = 0; case_id < 18; ++case_id) {
      Rng rng(static_cast<std::uint64_t>(23000 + 100 * psu_bits + case_id));
      const int family = case_id % 6;
      int m = static_cast<int>(rng.uniform_int(1, 40));
      int k = static_cast<int>(rng.uniform_int(1, 48));
      int n = static_cast<int>(rng.uniform_int(1, 40));
      if (family == 4) {
        m = 8 * static_cast<int>(rng.uniform_int(1, 4));
        k = 8 * static_cast<int>(rng.uniform_int(2, 6));
        n = 8 * static_cast<int>(rng.uniform_int(1, 4));
      }
      BfpFormat afmt = bfp8_format();
      if (family == 5) afmt.rows = (case_id % 12 == 5) ? 4 : 16;
      std::vector<float> a, b;
      switch (family) {
        case 1:
          a = zero_denormal_operand(rng, m, k);
          b = zero_denormal_operand(rng, k, n);
          break;
        case 2:
          a = exponent_skew_operand(rng, m, k, /*along_cols=*/true);
          b = exponent_skew_operand(rng, k, n, /*along_cols=*/false);
          break;
        case 3:
          a = exponent_skew_operand(rng, m, k, /*along_cols=*/true, 20);
          b = mixed_scale_operand(rng, k, n);
          break;
        default:
          a = mixed_scale_operand(rng, m, k);
          b = mixed_scale_operand(rng, k, n);
          break;
      }
      const BfpMatrix am =
          quantize_matrix(a, m, k, afmt, RoundMode::kNearestEven);
      const BfpMatrix bm =
          quantize_matrix(b, k, n, bfp8_format(), RoundMode::kNearestEven);
      const GemmOutcome want = gemm_outcome(
          [&] { return bfp_gemm_reference(am, bm, m, n, psu_bits); });
      (want.overflow ? overflows : values) += 1;
      for (const KernelTier tier : available_kernel_tiers()) {
        expect_same_outcome(
            want,
            gemm_outcome([&] {
              return bfp_gemm_dispatch(am, bm, m, n, psu_bits, tier);
            }),
            "psu_bits " + std::to_string(psu_bits) + " case " +
                std::to_string(case_id) + " family " +
                std::to_string(family) + " tier " + to_string(tier) + " (" +
                std::to_string(m) + "x" + std::to_string(k) + "x" +
                std::to_string(n) + ")");
        if (HasFatalFailure()) return;
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(overflows, 0);
  EXPECT_GT(values, 0);
}

TEST(GoldenDiff, Int32CarrierWrapIsRefusedLikeTheReference) {
  // 8 x k x 8 with every mantissa 127 at one exponent: each k-block adds
  // 8 * 127^2 = 129032 to every partial sum, so they cross 2^31 after
  // 16643 blocks. At k = 133600 (16700 blocks) a 32-bit carrier must refuse
  // — in int32 lanes the sum wraps rather than growing — while 33 bits
  // holds it; at k = 133120 (16640 blocks) 32 bits still fits. 31 bits
  // refuses both.
  const struct {
    int k;
    int psu_bits;
    bool overflow;
  } cases[] = {{133600, 31, true},  {133600, 32, true},
               {133600, 33, false}, {133120, 31, true},
               {133120, 32, false}, {133120, 33, false}};
  for (const auto& c : cases) {
    const std::vector<float> a(static_cast<std::size_t>(8) * c.k, 127.0F);
    const std::vector<float> b(static_cast<std::size_t>(c.k) * 8, 127.0F);
    const BfpMatrix am =
        quantize_matrix(a, 8, c.k, bfp8_format(), RoundMode::kNearestEven);
    const BfpMatrix bm =
        quantize_matrix(b, c.k, 8, bfp8_format(), RoundMode::kNearestEven);
    ASSERT_EQ(am.block(0, 0).at(0, 0), 127);
    const GemmOutcome want = gemm_outcome(
        [&] { return bfp_gemm_reference(am, bm, 8, 8, c.psu_bits); });
    ASSERT_EQ(want.overflow, c.overflow) << "k " << c.k << " psu_bits "
                                         << c.psu_bits;
    for (const KernelTier tier : available_kernel_tiers()) {
      expect_same_outcome(
          want,
          gemm_outcome([&] {
            return bfp_gemm_dispatch(am, bm, 8, 8, c.psu_bits, tier);
          }),
          "k " + std::to_string(c.k) + " psu_bits " +
              std::to_string(c.psu_bits) + " tier " + to_string(tier));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(GoldenDiff, FastPathPsuOverflowSurfacesFromPublicApi) {
  // gemm_bfp8_fast twin of FailureInjection.PsuOverflowSurfacesFromPublicApi
  // (which drives the cycle-stepped gemm_bfp8): a 16-bit carrier under 64
  // k-tiles of worst-case sums must refuse through every tier.
  struct TierGuard {
    KernelTier prev = active_kernel_tier();
    ~TierGuard() { set_active_kernel_tier(prev); }
  } guard;
  PuConfig cfg;
  cfg.psu_bits = 16;
  ProcessingUnit pu(cfg);
  const int m = 8;
  const int k = 512;
  const int n = 8;
  const std::vector<float> a(static_cast<std::size_t>(m) * k, 1.0F);
  const std::vector<float> b(static_cast<std::size_t>(k) * n, 1.0F);
  for (const KernelTier tier : available_kernel_tiers()) {
    set_active_kernel_tier(tier);
    EXPECT_THROW(pu.gemm_bfp8_fast(a, m, k, b, n), HardwareContractError)
        << to_string(tier);
  }
}

/// --------- satellite 2: sliced fp32 multiply property test ---------

/// The mathematically derived dropped-LSB bound: the omitted (0,0) partial
/// product is < 2^16 on the 48-bit product grid, i.e. an absolute error
/// below 2^(ex + ey - 284) with ex/ey the decomposed biased exponents
/// (subnormals report 1, matching the datapath's weighting). On top of
/// that the output normalization contributes at most 2 units of the
/// result's grid (1 for truncation, 0.5 for RNE; 2 covers the flush
/// through the subnormal range).
void check_sliced_mul_bound(float x, float y, bool rne) {
  const double exact = static_cast<double>(x) * static_cast<double>(y);
  const float ieee = x * y;
  if (!std::isfinite(ieee)) return;  // datapath saturation is out of scope
  const float got = fp32_mul_sliced(x, y, rne);
  ASSERT_TRUE(std::isfinite(got)) << fp32_fields(x) << " * "
                                  << fp32_fields(y);
  if (x == 0.0F || y == 0.0F) {
    ASSERT_EQ(got, 0.0F);
    return;
  }
  const Fp32Parts px = decompose(x);
  const Fp32Parts py = decompose(y);
  const double dropped =
      std::ldexp(1.0, px.biased_exp + py.biased_exp - 284);
  const int result_exp =
      (ieee == 0.0F) ? -149
                     : std::max(-149, std::ilogb(std::fabs(ieee)) - 23);
  const double grid = std::ldexp(1.0, result_exp);
  ASSERT_LE(std::fabs(static_cast<double>(got) - exact),
            dropped + 2.0 * grid)
      << fp32_fields(x) << " * " << fp32_fields(y) << " rne=" << rne
      << " got " << got << " exact " << exact;
  // Documented tight bound for normal operands and normal results:
  // <= 1 ulp with RNE, <= 2 ulp with truncation (test_slices.cpp).
  if (px.mantissa >= (1u << 23) && py.mantissa >= (1u << 23) &&
      std::fabs(ieee) >= FLT_MIN) {
    ASSERT_LE(ulp_distance(got, ieee), rne ? 1 : 2)
        << fp32_fields(x) << " * " << fp32_fields(y);
  }
}

TEST(SlicedMulProperty, DroppedLsbBoundAcrossFullRange) {
  Rng rng(501);
  // Random operands spanning the full finite range, subnormals included.
  for (int i = 0; i < kSlicedRandomCases; ++i) {
    const float x = random_finite_fp32(rng);
    const float y = random_finite_fp32(rng);
    check_sliced_mul_bound(x, y, /*rne=*/(i % 2) == 0);
  }
  // Boundary x boundary cross product, both rounding modes.
  const std::vector<float> bounds = boundary_operands();
  for (float x : bounds) {
    for (float y : bounds) {
      check_sliced_mul_bound(x, y, true);
      check_sliced_mul_bound(x, y, false);
    }
  }
  // Boundary x random-normal mix.
  for (float x : bounds) {
    for (int i = 0; i < 200; ++i) {
      check_sliced_mul_bound(x, random_normal_fp32(rng, 80, 170),
                             (i % 2) == 0);
    }
  }
}

TEST(SlicedMulProperty, ParallelEngineBitIdenticalToSerial) {
  // The sliced multiply under the parallel execution engine must produce
  // exactly the serial bits: results land in index-owned slots and the
  // operation itself is pure.
  Rng rng(502);
  const std::size_t n = 6000;
  std::vector<float> xs(n);
  std::vector<float> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = random_finite_fp32(rng);
    ys[i] = random_finite_fp32(rng);
    const float ieee = xs[i] * ys[i];
    if (!std::isfinite(ieee)) {
      xs[i] = random_normal_fp32(rng, 100, 150);
      ys[i] = random_normal_fp32(rng, 100, 150);
    }
  }
  auto run = [&](ThreadPool* pool) {
    std::vector<std::uint32_t> bits(n);
    auto body = [&](std::size_t i) {
      bits[i] = float_to_bits(
          fp32_mul_sliced(xs[i], ys[i], /*round_nearest_even=*/(i % 2) == 0));
    };
    if (pool != nullptr) {
      pool->parallel_for(n, body);
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
    return bits;
  };
  const std::vector<std::uint32_t> serial = run(nullptr);
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    const std::vector<std::uint32_t> par = run(&pool);
    ASSERT_EQ(par, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace bfpsim
