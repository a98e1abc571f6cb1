// Block floating point (bfp) number format and bit-exact reference
// arithmetic (Eqns 1-3 of the paper).
//
// A bfp block is a 2-D tile of values sharing one exponent:
//     val[i][j] = 2^expb * man[i][j]
// with an 8-bit two's-complement shared exponent and 8-bit two's-complement
// mantissas in the paper's bfp8 instantiation (both widths are configurable
// here for design-space ablations).
//
// The reference implementations in this header define the *golden* numerics
// the cycle-accurate ProcessingUnit must reproduce bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bfpsim {

/// Rounding applied when narrowing a mantissa (quantization/normalization).
enum class RoundMode {
  kTruncate,       ///< drop bits (round toward -inf on the shifted field)
  kNearestEven,    ///< IEEE-style round to nearest, ties to even
  kHalfAway,       ///< add half-ulp then truncate (cheap hardware rounder)
};

/// Static description of a bfp format.
struct BfpFormat {
  int mant_bits = 8;   ///< two's-complement element mantissa width
  int exp_bits = 8;    ///< two's-complement shared exponent width
  int rows = 8;        ///< block rows (m)
  int cols = 8;        ///< block cols (n)
  /// Symmetric mantissa range [-max_mant, +max_mant]. Keeping the range
  /// symmetric (excluding -2^(b-1)) is what makes an 8-deep packed-MAC
  /// column overflow-free in the DSP's 18-bit lower field (Section II-B).
  bool symmetric = true;

  std::int64_t mant_max() const {
    return (std::int64_t{1} << (mant_bits - 1)) - 1;
  }
  std::int64_t mant_min() const {
    return symmetric ? -mant_max() : -(std::int64_t{1} << (mant_bits - 1));
  }
  std::int64_t exp_max() const {
    return (std::int64_t{1} << (exp_bits - 1)) - 1;
  }
  std::int64_t exp_min() const {
    return -(std::int64_t{1} << (exp_bits - 1));
  }
  int elements() const { return rows * cols; }

  void validate() const;
  bool operator==(const BfpFormat&) const = default;
};

/// The paper's bfp8 with 8x8 blocks.
BfpFormat bfp8_format();

/// One quantized block: shared exponent + row-major mantissas.
struct BfpBlock {
  BfpFormat fmt;
  std::int32_t expb = 0;              ///< shared exponent (2^expb weighting)
  std::vector<std::int16_t> man;      ///< row-major, fits fmt.mant_bits

  BfpBlock() = default;
  explicit BfpBlock(const BfpFormat& f)
      : fmt(f), man(static_cast<std::size_t>(f.elements()), 0) {}

  std::int16_t& at(int r, int c) {
    return man[static_cast<std::size_t>(r * fmt.cols + c)];
  }
  std::int16_t at(int r, int c) const {
    return man[static_cast<std::size_t>(r * fmt.cols + c)];
  }

  /// Reconstructed float value of element (r, c): man * 2^expb.
  float value(int r, int c) const;

  /// All reconstructed values, row-major.
  std::vector<float> dequantize() const;

  /// Every mantissa within format range and exponent within exp range?
  bool well_formed() const;
};

/// Quantize a row-major float tile (rows x cols of `fmt`) into a BfpBlock.
///
/// The shared exponent is the smallest expb such that every
/// round(v * 2^-expb) fits the (symmetric) mantissa range; values quantize to
/// man = round(v * 2^-expb). NaN/Inf inputs are rejected. An all-zero tile
/// gets expb = fmt.exp_min().
BfpBlock quantize_block(std::span<const float> tile, const BfpFormat& fmt,
                        RoundMode round = RoundMode::kNearestEven);

/// A block of *wide* partial sums, as held by the PSU buffer before
/// normalization: psu[i][j] * 2^expb with 32-bit mantissa carriers.
struct WideBlock {
  int rows = 0;
  int cols = 0;
  std::int32_t expb = 0;
  std::vector<std::int64_t> psu;  ///< row-major wide mantissas

  WideBlock() = default;
  WideBlock(int r, int c)
      : rows(r), cols(c), psu(static_cast<std::size_t>(r * c), 0) {}

  std::int64_t& at(int r, int c) {
    return psu[static_cast<std::size_t>(r * cols + c)];
  }
  std::int64_t at(int r, int c) const {
    return psu[static_cast<std::size_t>(r * cols + c)];
  }

  std::vector<float> dequantize() const;
};

/// Reference bfp block matrix multiply (Eqn 2):
///   Z.expb = X.expb + Y.expb
///   Z.psu[i][j] = sum_k X.man[i][k] * Y.man[k][j]
/// X is (m x n), Y is (n x p); returns an (m x p) WideBlock (no rounding).
WideBlock bfp_matmul_block(const BfpBlock& x, const BfpBlock& y);

/// Reference aligned accumulation (Eqn 3 generalized to wide mantissas):
/// acc += in, aligning the smaller-exponent operand's mantissas right.
/// `psu_bits` models the PSU storage width; alignment shifts use truncation
/// exactly as the hardware shifter does. Throws HardwareContractError if the
/// aligned sum would overflow the carrier.
void psu_accumulate(WideBlock& acc, const WideBlock& in, int psu_bits,
                    RoundMode round = RoundMode::kTruncate);

/// Normalize a wide block back to a BfpBlock in format `fmt` (the final
/// "Normalize" step of Table I): choose the smallest output exponent such
/// that all rounded mantissas fit, then round each mantissa.
BfpBlock normalize_block(const WideBlock& wide, const BfpFormat& fmt,
                         RoundMode round = RoundMode::kNearestEven);

/// Reference bfp block add (Eqn 3) at block granularity, producing a
/// normalized result in the same format.
BfpBlock bfp_add_block(const BfpBlock& x, const BfpBlock& y,
                       RoundMode round = RoundMode::kNearestEven);

/// Narrow a wide mantissa by `shift` bits with the given rounding mode.
std::int64_t round_shift(std::int64_t v, int shift, RoundMode round);

/// -------- Tiled GEMM on bfp blocks (the linear-layer reference) --------

/// A matrix stored as a grid of BfpBlocks. Dimensions must be multiples of
/// the block size; callers pad with zeros beforehand (see pad_to_blocks).
struct BfpMatrix {
  BfpFormat fmt;
  int rows = 0;            ///< logical rows (multiple of fmt.rows)
  int cols = 0;            ///< logical cols (multiple of fmt.cols)
  std::vector<BfpBlock> blocks;  ///< row-major grid of blocks

  int block_rows() const { return rows / fmt.rows; }
  int block_cols() const { return cols / fmt.cols; }
  const BfpBlock& block(int br, int bc) const {
    return blocks[static_cast<std::size_t>(br * block_cols() + bc)];
  }
  BfpBlock& block(int br, int bc) {
    return blocks[static_cast<std::size_t>(br * block_cols() + bc)];
  }
};

/// Quantize a row-major rows x cols float matrix into a BfpMatrix,
/// zero-padding to block multiples.
BfpMatrix quantize_matrix(std::span<const float> data, int rows, int cols,
                          const BfpFormat& fmt,
                          RoundMode round = RoundMode::kNearestEven);

/// Reference tiled matmul C = A * B over BfpMatrix operands, accumulating
/// k-blocks through psu_accumulate (psu_bits carrier) and returning the
/// dequantized float result (logical_rows x logical_cols, unpadded).
///
/// This is the end-to-end golden model for the accelerator's bfp8 MatMul.
///
/// When `pool` is non-null the independent output tiles (each an 8-column
/// block with its own sequential k-reduction) are computed concurrently —
/// the software analogue of spreading output column tiles across PE
/// arrays. Results are bit-identical to the serial path for any worker
/// count: tiles share no state and each tile's k-order is unchanged.
class ThreadPool;
std::vector<float> bfp_gemm_reference(const BfpMatrix& a, const BfpMatrix& b,
                                      int logical_rows, int logical_cols,
                                      int psu_bits = 32,
                                      ThreadPool* pool = nullptr);

/// Debug dump of a block.
std::string to_string(const BfpBlock& b);

}  // namespace bfpsim
