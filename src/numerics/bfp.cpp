#include "numerics/bfp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/bitops.hpp"
#include "common/contract.hpp"
#include "common/thread_pool.hpp"

namespace bfpsim {

void BfpFormat::validate() const {
  BFP_REQUIRE(mant_bits >= 2 && mant_bits <= 16,
              "BfpFormat: mant_bits must be in [2,16]");
  BFP_REQUIRE(exp_bits >= 4 && exp_bits <= 10,
              "BfpFormat: exp_bits must be in [4,10]");
  BFP_REQUIRE(rows >= 1 && rows <= 64 && cols >= 1 && cols <= 64,
              "BfpFormat: block dims must be in [1,64]");
}

BfpFormat bfp8_format() { return BfpFormat{}; }

float BfpBlock::value(int r, int c) const {
  return std::ldexp(static_cast<float>(at(r, c)), expb);
}

std::vector<float> BfpBlock::dequantize() const {
  std::vector<float> out(man.size());
  for (std::size_t i = 0; i < man.size(); ++i) {
    out[i] = std::ldexp(static_cast<float>(man[i]), expb);
  }
  return out;
}

bool BfpBlock::well_formed() const {
  if (expb < fmt.exp_min() || expb > fmt.exp_max()) return false;
  for (std::int16_t m : man) {
    if (m < fmt.mant_min() || m > fmt.mant_max()) return false;
  }
  return true;
}

std::int64_t round_shift(std::int64_t v, int shift, RoundMode round) {
  switch (round) {
    case RoundMode::kTruncate: return asr(v, shift);
    case RoundMode::kNearestEven: return asr_rne(v, shift);
    case RoundMode::kHalfAway: return asr_round_half_away(v, shift);
  }
  BFP_ASSERT(false);
  return 0;
}

namespace {

// round(x) under kRound for |x| < 2^51, without libm. Adding and
// subtracting 1.5 * 2^52 leaves x rounded to an integer in the current
// (round-to-nearest-even) mode, exactly as nearbyint; floor is that minus
// one where it rounded up. kHalfAway keeps the reference's floor(x + 0.5),
// including the rounding of the double sum.
template <RoundMode kRound>
double round_scaled(double x) {
  constexpr double kMagic = 0x1.8p52;
  if constexpr (kRound == RoundMode::kHalfAway) x += 0.5;
  const double r = (x + kMagic) - kMagic;
  if constexpr (kRound == RoundMode::kNearestEven) {
    return r;
  } else {
    return r > x ? r - 1.0 : r;
  }
}

// Quantize the fmt.rows x fmt.cols tile whose top-left `valid_rows` x
// `valid_cols` elements start at `src` (row stride `ld`) into `out`, whose
// mantissas start zeroed; elements outside the valid region are zero
// padding and stay zero.
//
// Bit-identical to rounding every v * 2^-e with ldexp and nearbyint/floor:
// - v * 2^-e is exact. e lies in [exp_min, exp_max] within [-512, 511], so
//   2^-e is a normal double, and a finite float times it stays a normal
//   double (magnitude between 2^-660 and 2^640): only the exponent moves.
// - Rounding is monotone, so every mantissa of the tile fits the format
//   at e exactly when the rounded largest and smallest elements do. Those
//   two decide e; the rounded values are then in range by construction,
//   and their magnitude is at most 2^15, inside round_scaled's exact range.
template <RoundMode kRound>
void quantize_tile(const float* src, std::size_t ld, int valid_rows,
                   int valid_cols, const BfpFormat& fmt, BfpBlock& out) {
  float lo = 0.0F;
  float hi = 0.0F;
  bool finite = true;
  for (int r = 0; r < valid_rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * ld;
    for (int c = 0; c < valid_cols; ++c) {
      finite = finite && std::isfinite(row[c]);
      lo = std::min(lo, row[c]);
      hi = std::max(hi, row[c]);
    }
  }
  BFP_REQUIRE(finite, "quantize_block: NaN/Inf input");
  const float max_abs = std::max(-lo, hi);
  if (max_abs == 0.0F) {
    out.expb = static_cast<std::int32_t>(fmt.exp_min());
    return;
  }

  // Smallest expb with every round(v * 2^-expb) in range. Start from the
  // analytic estimate and nudge upward if rounding carries out of range.
  int e = std::max<int>(
      static_cast<int>(fmt.exp_min()),
      static_cast<int>(std::ceil(
          std::log2(static_cast<double>(max_abs) /
                    (static_cast<double>(fmt.mant_max()) + 0.5)))));
  const auto mant_min = static_cast<double>(fmt.mant_min());
  const auto mant_max = static_cast<double>(fmt.mant_max());
  // Every in-range mantissa has magnitude at most 2^15, so a scaled value at
  // or beyond this guard cannot fit; the guard keeps round_scaled's input
  // (after kHalfAway's + 0.5) below 2^51.
  constexpr double kGuard = 0x1p50;
  double scale = 0.0;
  for (;; ++e) {
    BFP_REQUIRE(e <= fmt.exp_max(),
                "quantize_block: value too large for exponent range");
    // 2^-e, built from its exponent field.
    scale = std::bit_cast<double>(static_cast<std::uint64_t>(1023 - e) << 52);
    const double h = static_cast<double>(hi) * scale;
    const double l = static_cast<double>(lo) * scale;
    if (h < kGuard && l > -kGuard && round_scaled<kRound>(h) <= mant_max &&
        round_scaled<kRound>(l) >= mant_min) {
      break;
    }
  }
  out.expb = e;
  for (int r = 0; r < valid_rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * ld;
    std::int16_t* man =
        out.man.data() + static_cast<std::size_t>(r * fmt.cols);
    for (int c = 0; c < valid_cols; ++c) {
      man[c] = static_cast<std::int16_t>(
          round_scaled<kRound>(static_cast<double>(row[c]) * scale));
    }
  }
#if BFPSIM_CONTRACTS
  BFPSIM_ENSURE(out.expb >= fmt.exp_min() && out.expb <= fmt.exp_max(),
                "quantize_block: shared exponent outside format range");
  for (const std::int16_t m : out.man) {
    BFPSIM_ENSURE(m >= fmt.mant_min() && m <= fmt.mant_max(),
                  "quantize_block: mantissa outside format range");
  }
#endif
}

void quantize_tile(const float* src, std::size_t ld, int valid_rows,
                   int valid_cols, const BfpFormat& fmt, RoundMode round,
                   BfpBlock& out) {
  switch (round) {
    case RoundMode::kTruncate:
      return quantize_tile<RoundMode::kTruncate>(src, ld, valid_rows,
                                                 valid_cols, fmt, out);
    case RoundMode::kNearestEven:
      return quantize_tile<RoundMode::kNearestEven>(src, ld, valid_rows,
                                                    valid_cols, fmt, out);
    case RoundMode::kHalfAway:
      return quantize_tile<RoundMode::kHalfAway>(src, ld, valid_rows,
                                                 valid_cols, fmt, out);
  }
  BFP_ASSERT(false);
}

}  // namespace

BfpBlock quantize_block(std::span<const float> tile, const BfpFormat& fmt,
                        RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(tile.size() == static_cast<std::size_t>(fmt.elements()),
              "quantize_block: tile size must equal rows*cols");
  BfpBlock out(fmt);
  quantize_tile(tile.data(), static_cast<std::size_t>(fmt.cols), fmt.rows,
                fmt.cols, fmt, round, out);
  return out;
}

std::vector<float> WideBlock::dequantize() const {
  std::vector<float> out(psu.size());
  for (std::size_t i = 0; i < psu.size(); ++i) {
    out[i] = static_cast<float>(
        std::ldexp(static_cast<double>(psu[i]), expb));
  }
  return out;
}

WideBlock bfp_matmul_block(const BfpBlock& x, const BfpBlock& y) {
  BFP_REQUIRE(x.fmt.cols == y.fmt.rows,
              "bfp_matmul_block: inner dimensions must match");
  WideBlock z(x.fmt.rows, y.fmt.cols);
  z.expb = x.expb + y.expb;
  for (int i = 0; i < x.fmt.rows; ++i) {
    for (int j = 0; j < y.fmt.cols; ++j) {
      std::int64_t s = 0;
      for (int k = 0; k < x.fmt.cols; ++k) {
        s += static_cast<std::int64_t>(x.at(i, k)) * y.at(k, j);
      }
      z.at(i, j) = s;
    }
  }
  return z;
}

void psu_accumulate(WideBlock& acc, const WideBlock& in, int psu_bits,
                    RoundMode round) {
  BFP_REQUIRE(acc.rows == in.rows && acc.cols == in.cols,
              "psu_accumulate: block shapes must match");
  BFP_REQUIRE(psu_bits >= 8 && psu_bits <= 62,
              "psu_accumulate: psu_bits must be in [8,62]");
  // Align the smaller-exponent operand right (Eqn 3). The result keeps the
  // larger exponent.
  const std::int32_t e = std::max(acc.expb, in.expb);
  const int shift_acc = static_cast<int>(e - acc.expb);
  const int shift_in = static_cast<int>(e - in.expb);
  // Truncation precondition: alignment only ever shifts right (drops low
  // bits); a negative shift would *invent* bits and is a simulator bug.
  BFPSIM_REQUIRE(shift_acc >= 0 && shift_in >= 0 &&
                     (shift_acc == 0 || shift_in == 0),
                 "psu_accumulate: exactly one operand may be down-aligned");
  for (std::size_t i = 0; i < acc.psu.size(); ++i) {
    const std::int64_t a = round_shift(acc.psu[i], shift_acc, round);
    const std::int64_t b = round_shift(in.psu[i], shift_in, round);
    const std::int64_t s = a + b;
    if (!fits_signed(s, psu_bits)) {
      throw HardwareContractError(
          "psu_accumulate: partial sum overflows " +
          std::to_string(psu_bits) + "-bit PSU carrier");
    }
    acc.psu[i] = s;
  }
  acc.expb = e;
}

BfpBlock normalize_block(const WideBlock& wide, const BfpFormat& fmt,
                         RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(wide.rows == fmt.rows && wide.cols == fmt.cols,
              "normalize_block: shape must match format");
  // Smallest right-shift such that every rounded mantissa fits the format.
  int shift = 0;
  for (;; ++shift) {
    BFP_REQUIRE(shift <= 62, "normalize_block: unbounded shift");
    bool ok = true;
    for (std::int64_t v : wide.psu) {
      const std::int64_t q = round_shift(v, shift, round);
      if (q < fmt.mant_min() || q > fmt.mant_max()) {
        ok = false;
        break;
      }
    }
    if (ok) break;
  }
  BfpBlock out(fmt);
  const std::int64_t e = static_cast<std::int64_t>(wide.expb) + shift;
  BFP_REQUIRE(e >= fmt.exp_min() && e <= fmt.exp_max(),
              "normalize_block: exponent out of format range");
  out.expb = static_cast<std::int32_t>(e);
  for (std::size_t i = 0; i < wide.psu.size(); ++i) {
    out.man[i] = static_cast<std::int16_t>(
        round_shift(wide.psu[i], shift, round));
  }
  return out;
}

BfpBlock bfp_add_block(const BfpBlock& x, const BfpBlock& y,
                       RoundMode round) {
  BFP_REQUIRE(x.fmt.rows == y.fmt.rows && x.fmt.cols == y.fmt.cols,
              "bfp_add_block: shapes must match");
  WideBlock wx(x.fmt.rows, x.fmt.cols);
  wx.expb = x.expb;
  for (std::size_t i = 0; i < x.man.size(); ++i) wx.psu[i] = x.man[i];
  WideBlock wy(y.fmt.rows, y.fmt.cols);
  wy.expb = y.expb;
  for (std::size_t i = 0; i < y.man.size(); ++i) wy.psu[i] = y.man[i];
  psu_accumulate(wx, wy, /*psu_bits=*/32, RoundMode::kTruncate);
  return normalize_block(wx, x.fmt, round);
}

BfpMatrix quantize_matrix(std::span<const float> data, int rows, int cols,
                          const BfpFormat& fmt, RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  data.size() == static_cast<std::size_t>(rows) * cols,
              "quantize_matrix: data size must equal rows*cols");
  BfpMatrix m;
  m.fmt = fmt;
  m.rows = ((rows + fmt.rows - 1) / fmt.rows) * fmt.rows;
  m.cols = ((cols + fmt.cols - 1) / fmt.cols) * fmt.cols;
  const int brs = m.rows / fmt.rows;
  const int bcs = m.cols / fmt.cols;
  m.blocks.reserve(static_cast<std::size_t>(brs) * bcs);
  for (int br = 0; br < brs; ++br) {
    const int r0 = br * fmt.rows;
    for (int bc = 0; bc < bcs; ++bc) {
      const int c0 = bc * fmt.cols;
      quantize_tile(data.data() + static_cast<std::size_t>(r0) * cols + c0,
                    static_cast<std::size_t>(cols),
                    std::min(fmt.rows, rows - r0),
                    std::min(fmt.cols, cols - c0), fmt, round,
                    m.blocks.emplace_back(fmt));
    }
  }
  return m;
}

std::vector<float> bfp_gemm_reference(const BfpMatrix& a, const BfpMatrix& b,
                                      int logical_rows, int logical_cols,
                                      int psu_bits, ThreadPool* pool) {
  BFP_REQUIRE(a.cols == b.rows, "bfp_gemm_reference: inner dims must match");
  BFP_REQUIRE(logical_rows <= a.rows && logical_cols <= b.cols,
              "bfp_gemm_reference: logical dims exceed padded dims");
  const int brs = a.block_rows();
  const int bcs = b.block_cols();
  const int bks = a.block_cols();
  std::vector<float> out(static_cast<std::size_t>(logical_rows) *
                         logical_cols);
  // One task per output tile. Tiles write disjoint `out` regions and run
  // their k-reduction in ascending bk order, so the result does not depend
  // on which worker computes which tile.
  auto compute_tile = [&](std::size_t tile) {
    const int br = static_cast<int>(tile) / bcs;
    const int bc = static_cast<int>(tile) % bcs;
    WideBlock acc(a.fmt.rows, b.fmt.cols);
    acc.expb = std::numeric_limits<std::int32_t>::min() / 2;  // -inf-ish
    bool first = true;
    for (int bk = 0; bk < bks; ++bk) {
      WideBlock p = bfp_matmul_block(a.block(br, bk), b.block(bk, bc));
      if (first) {
        acc = std::move(p);
        first = false;
      } else {
        psu_accumulate(acc, p, psu_bits);
      }
    }
    for (int r = 0; r < a.fmt.rows; ++r) {
      const int gr = br * a.fmt.rows + r;
      if (gr >= logical_rows) break;
      for (int c = 0; c < b.fmt.cols; ++c) {
        const int gc = bc * b.fmt.cols + c;
        if (gc >= logical_cols) continue;
        out[static_cast<std::size_t>(gr) * logical_cols + gc] =
            static_cast<float>(
                std::ldexp(static_cast<double>(acc.at(r, c)), acc.expb));
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

std::string to_string(const BfpBlock& b) {
  std::ostringstream os;
  os << "BfpBlock{expb=" << b.expb << ", man=[";
  for (int r = 0; r < b.fmt.rows; ++r) {
    os << (r == 0 ? "[" : " [");
    for (int c = 0; c < b.fmt.cols; ++c) {
      os << b.at(r, c) << (c + 1 < b.fmt.cols ? ", " : "");
    }
    os << "]" << (r + 1 < b.fmt.rows ? "\n" : "");
  }
  os << "]}";
  return os.str();
}

}  // namespace bfpsim
