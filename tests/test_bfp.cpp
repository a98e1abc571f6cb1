// Tests for the block-floating-point format and reference arithmetic
// (Eqns 1-3), including property sweeps over block geometries.
#include "numerics/bfp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "numerics/quantizer.hpp"

namespace bfpsim {
namespace {

std::vector<float> random_tile(Rng& rng, const BfpFormat& fmt, float scale) {
  return rng.normal_vec(static_cast<std::size_t>(fmt.elements()), 0.0F,
                        scale);
}

TEST(BfpFormat, Bfp8Defaults) {
  const BfpFormat f = bfp8_format();
  EXPECT_EQ(f.mant_bits, 8);
  EXPECT_EQ(f.exp_bits, 8);
  EXPECT_EQ(f.rows, 8);
  EXPECT_EQ(f.cols, 8);
  EXPECT_EQ(f.mant_max(), 127);
  EXPECT_EQ(f.mant_min(), -127);  // symmetric: -128 excluded
  EXPECT_EQ(f.exp_max(), 127);
  EXPECT_EQ(f.exp_min(), -128);
}

TEST(BfpFormat, AsymmetricRange) {
  BfpFormat f = bfp8_format();
  f.symmetric = false;
  EXPECT_EQ(f.mant_min(), -128);
}

TEST(BfpQuantize, ZeroTile) {
  const BfpFormat f = bfp8_format();
  std::vector<float> tile(64, 0.0F);
  const BfpBlock b = quantize_block(tile, f);
  EXPECT_TRUE(b.well_formed());
  for (float v : b.dequantize()) EXPECT_EQ(v, 0.0F);
}

TEST(BfpQuantize, ExactPowersOfTwo) {
  const BfpFormat f = bfp8_format();
  std::vector<float> tile(64, 0.0F);
  tile[0] = 31.0F;
  tile[1] = -16.0F;
  tile[2] = 0.25F;
  const BfpBlock b = quantize_block(tile, f);
  EXPECT_TRUE(b.well_formed());
  // max_abs = 31 -> expb = -2 (31 * 4 = 124 <= 127): all values exact.
  EXPECT_EQ(b.expb, -2);
  EXPECT_EQ(b.value(0, 0), 31.0F);
  EXPECT_EQ(b.value(0, 1), -16.0F);
  EXPECT_EQ(b.value(0, 2), 0.25F);
}

TEST(BfpQuantize, MantissasStayInSymmetricRange) {
  Rng rng(11);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 200; ++trial) {
    const float scale = std::exp(rng.uniform(-10.0F, 10.0F));
    const BfpBlock b = quantize_block(random_tile(rng, f, scale), f);
    EXPECT_TRUE(b.well_formed());
  }
}

TEST(BfpQuantize, RejectsNonFinite) {
  const BfpFormat f = bfp8_format();
  std::vector<float> tile(64, 0.0F);
  tile[7] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(quantize_block(tile, f), Error);
}

TEST(BfpQuantize, QuantizationErrorBounded) {
  // Relative error of the largest element is at most ~1/254 (7-bit+sign
  // symmetric mantissa), and every element's absolute error is at most
  // half an ulp of the shared scale.
  Rng rng(12);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 100; ++trial) {
    const auto tile = random_tile(rng, f, 3.0F);
    const BfpBlock b = quantize_block(tile, f);
    const auto back = b.dequantize();
    const float ulp = std::ldexp(1.0F, b.expb);
    for (std::size_t i = 0; i < tile.size(); ++i) {
      EXPECT_LE(std::fabs(back[i] - tile[i]), 0.5F * ulp + 1e-12F);
    }
  }
}

TEST(BfpMatmulBlock, MatchesFloatReference) {
  Rng rng(13);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 50; ++trial) {
    const BfpBlock x = quantize_block(random_tile(rng, f, 1.0F), f);
    const BfpBlock y = quantize_block(random_tile(rng, f, 1.0F), f);
    const WideBlock z = bfp_matmul_block(x, y);
    EXPECT_EQ(z.expb, x.expb + y.expb);
    // The wide product must equal the exact product of the dequantized
    // blocks (no information is lost before normalization).
    const auto xv = x.dequantize();
    const auto yv = y.dequantize();
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        double acc = 0.0;
        for (int kk = 0; kk < 8; ++kk) {
          acc += static_cast<double>(xv[static_cast<std::size_t>(i * 8 + kk)]) *
                 yv[static_cast<std::size_t>(kk * 8 + j)];
        }
        const double got = std::ldexp(static_cast<double>(z.at(i, j)), z.expb);
        EXPECT_NEAR(got, acc, 1e-6 * std::max(1.0, std::fabs(acc)));
      }
    }
  }
}

TEST(PsuAccumulate, AlignsExponents) {
  WideBlock a(2, 2);
  a.expb = 0;
  a.at(0, 0) = 100;
  WideBlock b(2, 2);
  b.expb = 2;  // each unit worth 4x
  b.at(0, 0) = 25;
  psu_accumulate(a, b, 32);
  // Result exponent is max(0,2)=2; a's 100 shifts right by 2 -> 25; 25+25.
  EXPECT_EQ(a.expb, 2);
  EXPECT_EQ(a.at(0, 0), 50);
}

TEST(PsuAccumulate, OverflowThrows) {
  WideBlock a(1, 1);
  a.expb = 0;
  a.at(0, 0) = (std::int64_t{1} << 30);
  WideBlock b(1, 1);
  b.expb = 0;
  b.at(0, 0) = (std::int64_t{1} << 30);
  EXPECT_THROW(psu_accumulate(a, b, 32), HardwareContractError);
}

TEST(NormalizeBlock, FitsFormatAndPreservesScale) {
  Rng rng(14);
  const BfpFormat f = bfp8_format();
  const BfpBlock x = quantize_block(random_tile(rng, f, 1.0F), f);
  const BfpBlock y = quantize_block(random_tile(rng, f, 1.0F), f);
  const WideBlock z = bfp_matmul_block(x, y);
  const BfpBlock nz = normalize_block(z, f);
  EXPECT_TRUE(nz.well_formed());
  // Normalized values approximate the wide values to within the new ulp.
  const float ulp = std::ldexp(1.0F, nz.expb);
  const auto wide = z.dequantize();
  const auto narrow = nz.dequantize();
  for (std::size_t i = 0; i < wide.size(); ++i) {
    EXPECT_LE(std::fabs(narrow[i] - wide[i]), 0.5F * ulp + 1e-12F);
  }
}

TEST(BfpAddBlock, MatchesFloatAddition) {
  Rng rng(15);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 50; ++trial) {
    const BfpBlock x = quantize_block(random_tile(rng, f, 1.0F), f);
    const BfpBlock y =
        quantize_block(random_tile(rng, f, 4.0F), f);  // different exponent
    const BfpBlock z = bfp_add_block(x, y);
    EXPECT_TRUE(z.well_formed());
    const auto xs = x.dequantize();
    const auto ys = y.dequantize();
    const auto zs = z.dequantize();
    const float ulp = std::ldexp(1.0F, z.expb);
    for (std::size_t i = 0; i < zs.size(); ++i) {
      // Alignment truncation plus normalization rounding: within ~1.5 ulp.
      EXPECT_LE(std::fabs(zs[i] - (xs[i] + ys[i])), 1.5F * ulp);
    }
  }
}

TEST(QuantizeMatrix, PadsToBlockMultiples) {
  Rng rng(16);
  const BfpFormat f = bfp8_format();
  const int rows = 13;
  const int cols = 19;
  const auto data =
      rng.normal_vec(static_cast<std::size_t>(rows) * cols, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, rows, cols, f);
  EXPECT_EQ(m.rows, 16);
  EXPECT_EQ(m.cols, 24);
  EXPECT_EQ(m.blocks.size(), 6u);
  const auto back = dequantize_matrix(m, rows, cols);
  const ErrorStats s = compute_error_stats(back, data);
  EXPECT_LT(s.rel_rmse, 0.01);
}

TEST(BfpGemmReference, MatchesDoubleGemmClosely) {
  Rng rng(17);
  const BfpFormat f = bfp8_format();
  const int m = 24;
  const int k = 40;
  const int n = 16;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  const BfpMatrix am = quantize_matrix(a, m, k, f);
  const BfpMatrix bm = quantize_matrix(b, k, n, f);
  const auto c = bfp_gemm_reference(am, bm, m, n);

  // Double-precision GEMM of the *quantized* inputs: the bfp pipeline loses
  // only alignment-truncation bits relative to this.
  const auto aq = dequantize_matrix(am, m, k);
  const auto bq = dequantize_matrix(bm, k, n);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int x = 0; x < k; ++x) {
        acc += static_cast<double>(aq[static_cast<std::size_t>(i) * k + x]) *
               bq[static_cast<std::size_t>(x) * n + j];
      }
      ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  // Bound depends on the seeded data (cancellation in a few outputs
  // amplifies truncation loss); 5e-4 still means only low-order bits moved.
  const ErrorStats s = compute_error_stats(c, ref);
  EXPECT_LT(s.rel_rmse, 5e-4);
}

// ---- differential test: quantize_block / quantize_matrix against the
// ldexp / nearbyint implementation they replaced, kept here verbatim as
// the oracle. ----

BfpBlock quantize_block_ldexp(std::span<const float> tile,
                              const BfpFormat& fmt, RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(tile.size() == static_cast<std::size_t>(fmt.elements()),
              "quantize_block: tile size must equal rows*cols");
  BfpBlock out(fmt);

  float max_abs = 0.0F;
  for (float v : tile) {
    BFP_REQUIRE(std::isfinite(v), "quantize_block: NaN/Inf input");
    max_abs = std::max(max_abs, std::fabs(v));
  }
  if (max_abs == 0.0F) {
    out.expb = static_cast<std::int32_t>(fmt.exp_min());
    return out;
  }

  int e = std::max<int>(
      static_cast<int>(fmt.exp_min()),
      static_cast<int>(std::ceil(
          std::log2(static_cast<double>(max_abs) /
                    (static_cast<double>(fmt.mant_max()) + 0.5)))));
  auto quantize_at = [&](int expb, bool& ok) {
    std::vector<std::int16_t> man(tile.size());
    ok = true;
    for (std::size_t i = 0; i < tile.size(); ++i) {
      const double scaled = std::ldexp(static_cast<double>(tile[i]), -expb);
      double q;
      switch (round) {
        case RoundMode::kTruncate: q = std::floor(scaled); break;
        case RoundMode::kNearestEven: q = std::nearbyint(scaled); break;
        case RoundMode::kHalfAway: q = std::floor(scaled + 0.5); break;
        default: q = 0; BFP_ASSERT(false);
      }
      if (q < static_cast<double>(fmt.mant_min()) ||
          q > static_cast<double>(fmt.mant_max())) {
        ok = false;
        return man;
      }
      man[i] = static_cast<std::int16_t>(q);
    }
    return man;
  };

  for (;; ++e) {
    BFP_REQUIRE(e <= fmt.exp_max(),
                "quantize_block: value too large for exponent range");
    bool ok = false;
    auto man = quantize_at(e, ok);
    if (ok) {
      out.expb = e;
      out.man = std::move(man);
      return out;
    }
  }
}

/// A quantization outcome: the block, or which error was thrown.
struct QuantOutcome {
  std::string error;  ///< "" (no throw), "nan", "overflow" or "other"
  BfpBlock block;
};

template <typename F>
QuantOutcome outcome_of(F&& quantize) {
  QuantOutcome o;
  try {
    o.block = quantize();
  } catch (const Error& err) {
    const std::string what = err.what();
    o.error = what.find("NaN/Inf") != std::string::npos ? "nan"
              : what.find("too large for exponent range") != std::string::npos
                  ? "overflow"
                  : "other";
  }
  return o;
}

float float_from_bits(std::uint32_t bits) {
  float f = 0.0F;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// One adversarial tile of `kind` for format `f`.
std::vector<float> adversarial_tile(Rng& rng, const BfpFormat& f, int kind) {
  std::vector<float> t(static_cast<std::size_t>(f.elements()), 0.0F);
  const auto mmax = f.mant_max();
  switch (kind) {
    case 0:  // all zero, with signed zeros
      for (float& v : t) v = rng.bernoulli(0.5) ? -0.0F : 0.0F;
      break;
    case 1: {  // ties: every scaled value ends in .5 at exponent e
      const int e = static_cast<int>(
          rng.uniform_int(std::max<std::int64_t>(-30, f.exp_min()),
                          std::min<std::int64_t>(30, f.exp_max() - 1)));
      for (float& v : t) {
        v = std::ldexp(static_cast<float>(rng.uniform_int(-mmax - 1, mmax - 1)) +
                           0.5F,
                       e);
      }
      // The largest magnitude sits at mant_max - 0.5 (e fits) or on the
      // mant_max + 0.5 boundary (e fits or not, by round mode).
      t[static_cast<std::size_t>(rng.uniform_int(0, f.elements() - 1))] =
          std::ldexp(static_cast<float>(mmax) +
                         (rng.bernoulli(0.5) ? 0.5F : -0.5F),
                     e) *
          (rng.bernoulli(0.5) ? 1.0F : -1.0F);
      break;
    }
    case 2:  // float subnormals (and zeros)
      for (float& v : t) {
        v = float_from_bits((rng.bits32() & 0x807FFFFFU) >>
                            (rng.uniform_int(0, 1) * 12));
      }
      break;
    case 3:  // random finite bit patterns
      for (float& v : t) {
        do {
          v = float_from_bits(rng.bits32());
        } while (!std::isfinite(v));
      }
      break;
    case 4:  // random bits at a narrow exponent spread (realistic tiles)
      for (float& v : t) {
        v = rng.normal(0.0F, 1.0F) *
            std::ldexp(1.0F, static_cast<int>(rng.uniform_int(-3, 3)));
      }
      break;
    case 5:  // one non-finite element among normal ones
      for (float& v : t) v = rng.normal(0.0F, 1.0F);
      t[static_cast<std::size_t>(rng.uniform_int(0, f.elements() - 1))] =
          rng.bernoulli(0.5) ? std::numeric_limits<float>::quiet_NaN()
                             : -std::numeric_limits<float>::infinity();
      break;
    default:  // too large for the exponent range (mostly small exp_bits)
      for (float& v : t) v = rng.normal(0.0F, 1.0F);
      t[static_cast<std::size_t>(rng.uniform_int(0, f.elements() - 1))] =
          std::ldexp(1.5F, static_cast<int>(f.exp_max()) +
                               f.mant_bits + static_cast<int>(
                                                 rng.uniform_int(-2, 1)));
      break;
  }
  return t;
}

constexpr int kTileKinds = 7;

void expect_same(const QuantOutcome& want, const QuantOutcome& got,
                 const std::string& where) {
  ASSERT_EQ(want.error, got.error) << where;
  if (!want.error.empty()) return;
  ASSERT_EQ(want.block.expb, got.block.expb) << where;
  ASSERT_EQ(want.block.man, got.block.man) << where;
}

TEST(BfpQuantizeDiff, MatchesLdexpOracleOverFormatsAndRoundModes) {
  Rng rng(2024);
  int errors[3] = {0, 0, 0};  // no-throw, nan, overflow outcomes seen
  for (int mant = 2; mant <= 16; ++mant) {
    for (int exp = 4; exp <= 10; ++exp) {
      for (const bool sym : {true, false}) {
        for (const RoundMode rm :
             {RoundMode::kTruncate, RoundMode::kNearestEven,
              RoundMode::kHalfAway}) {
          for (int d = 1; d <= 8; ++d) {
            BfpFormat f;
            f.mant_bits = mant;
            f.exp_bits = exp;
            f.symmetric = sym;
            f.rows = d;
            f.cols = (d * 3) % 8 + 1;  // covers 1..8 as d does
            for (int kind = 0; kind < kTileKinds; ++kind) {
              const auto tile = adversarial_tile(rng, f, kind);
              const std::string where =
                  "mant=" + std::to_string(mant) + " exp=" +
                  std::to_string(exp) + " sym=" + std::to_string(sym) +
                  " round=" + std::to_string(static_cast<int>(rm)) +
                  " dims=" + std::to_string(f.rows) + "x" +
                  std::to_string(f.cols) + " kind=" + std::to_string(kind);
              const QuantOutcome want = outcome_of(
                  [&] { return quantize_block_ldexp(tile, f, rm); });
              const QuantOutcome got =
                  outcome_of([&] { return quantize_block(tile, f, rm); });
              expect_same(want, got, where);
              ++errors[want.error.empty() ? 0 : want.error == "nan" ? 1 : 2];
            }
          }
        }
      }
    }
  }
  // Every outcome occurred, so both error paths were compared.
  EXPECT_GT(errors[0], 0);
  EXPECT_GT(errors[1], 0);
  EXPECT_GT(errors[2], 0);
}

TEST(BfpQuantizeDiff, MatrixMatchesOracleBlockByBlock) {
  // quantize_matrix reads blocks in place from the row-major matrix, with
  // zero padding past the edges; the oracle gets explicit padded tiles.
  Rng rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    BfpFormat f;
    f.mant_bits = static_cast<int>(rng.uniform_int(2, 16));
    f.exp_bits = static_cast<int>(rng.uniform_int(6, 10));
    f.symmetric = rng.bernoulli(0.5);
    f.rows = static_cast<int>(rng.uniform_int(1, 8));
    f.cols = static_cast<int>(rng.uniform_int(1, 8));
    const auto rm = static_cast<RoundMode>(rng.uniform_int(0, 2));
    const int rows = static_cast<int>(rng.uniform_int(1, 20));
    const int cols = static_cast<int>(rng.uniform_int(1, 20));
    const auto data = rng.normal_vec(
        static_cast<std::size_t>(rows) * cols, 0.0F,
        std::ldexp(1.0F, static_cast<int>(rng.uniform_int(-20, 20))));
    const BfpMatrix m = quantize_matrix(data, rows, cols, f, rm);
    ASSERT_EQ(m.rows % f.rows, 0);
    ASSERT_EQ(m.cols % f.cols, 0);
    std::vector<float> tile(static_cast<std::size_t>(f.elements()));
    for (int br = 0; br < m.block_rows(); ++br) {
      for (int bc = 0; bc < m.block_cols(); ++bc) {
        for (int r = 0; r < f.rows; ++r) {
          for (int c = 0; c < f.cols; ++c) {
            const int gr = br * f.rows + r;
            const int gc = bc * f.cols + c;
            tile[static_cast<std::size_t>(r * f.cols + c)] =
                gr < rows && gc < cols
                    ? data[static_cast<std::size_t>(gr) * cols + gc]
                    : 0.0F;
          }
        }
        const BfpBlock want = quantize_block_ldexp(tile, f, rm);
        ASSERT_EQ(want.expb, m.block(br, bc).expb) << "iter " << iter;
        ASSERT_EQ(want.man, m.block(br, bc).man) << "iter " << iter;
      }
    }
  }
}

/// Property sweep: quantize/dequantize round trip stays bounded for many
/// block geometries and mantissa widths.
class BfpFormatSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BfpFormatSweep, RoundTripBounded) {
  const auto [mant_bits, rows, cols] = GetParam();
  BfpFormat f;
  f.mant_bits = mant_bits;
  f.rows = rows;
  f.cols = cols;
  Rng rng(static_cast<std::uint64_t>(mant_bits * 1000 + rows * 10 + cols));
  const auto tile = rng.normal_vec(
      static_cast<std::size_t>(f.elements()), 0.0F, 2.0F);
  const BfpBlock b = quantize_block(tile, f);
  EXPECT_TRUE(b.well_formed());
  const auto back = b.dequantize();
  const float ulp = std::ldexp(1.0F, b.expb);
  for (std::size_t i = 0; i < tile.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - tile[i]), 0.5F * ulp + 1e-12F)
        << "mant_bits=" << mant_bits << " rows=" << rows << " cols=" << cols;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BfpFormatSweep,
    ::testing::Combine(::testing::Values(4, 6, 8, 10, 12),
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(2, 4, 8, 16)));

}  // namespace
}  // namespace bfpsim
