// The multi-mode Processing Unit (PU) of Fig. 2: X/Y operand buffers, the
// 8x8 PE array, the exponent unit, the per-column alignment shifters, the
// PSU buffer/accumulator, the fp32 layout converter and the output
// quantizer, sequenced by a controller that implements the three operating
// modes (bfp8 MatMul / fp32 mul / fp32 add).
//
// Everything data-carrying is bit-accurate; everything timed is
// cycle-accurate against Eqns 9 and 10. A faster functional path
// (`gemm_bfp8_fast`) produces identical numerics through the golden
// reference with the same analytic cycle model — tests pin the two paths
// together, and the transformer layer uses the fast path for full models.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bram/buffers.hpp"
#include "common/thread_pool.hpp"
#include "numerics/bfp.hpp"
#include "numerics/format/format_spec.hpp"
#include "pu/exponent_unit.hpp"
#include "pu/pe_array.hpp"
#include "pu/psu_buffer.hpp"
#include "sim/clock.hpp"
#include "sim/counters.hpp"
#include "sim/trace.hpp"

namespace bfpsim {

/// Full PU configuration.
struct PuConfig {
  PeArrayConfig array;
  int psu_bits = 32;
  double freq_hz = kDefaultFreqHz;
  RoundMode quant_round = RoundMode::kNearestEven;
  /// Normalize fp32 results with round-to-nearest-even (true) or pure
  /// truncation (false) — the paper mentions truncation; RNE costs one
  /// extra adder and is the default here (ablation knob).
  bool fp32_round_nearest = true;
  /// Active numeric mode (registry name) and its storage format. The EU
  /// and PSU derive their datapath widths from `format`; the defaults
  /// reproduce the historical bfp8 constants bit-for-bit.
  std::string mode = "bfp8";
  FormatSpec format = FormatSpec::bfp8();

  void validate() const;
  /// The bfp block format the bfp8 MatMul mode quantizes operands to
  /// (under `quant_round`): `format`'s widths over the PE array's block.
  BfpFormat bfp_format() const;
};

/// Outcome of a GEMM executed on the PU.
struct GemmRun {
  std::vector<float> c;            ///< row-major m x n result (dequantized)
  std::uint64_t compute_cycles = 0;
  std::uint64_t macs = 0;          ///< useful multiply-accumulates
  /// Throughput in operations (2 per MAC) per second at the PU frequency.
  double sustained_ops_per_sec(double freq_hz) const;
};

/// Outcome of an fp32 vector stream op.
struct VecRun {
  std::vector<float> out;
  std::uint64_t compute_cycles = 0;
  std::uint64_t flops = 0;
};

class ProcessingUnit {
 public:
  explicit ProcessingUnit(const PuConfig& cfg = PuConfig{});

  /// ---- bfp8 MatMul mode ----

  /// C = A * B with A (m x k) and B (k x n) dense row-major fp32 inputs,
  /// quantized to bfp8 on the fly (the hardware Quantizer), executed
  /// cycle-accurately on the PE array with Y-stationary sequencing and
  /// combined-MAC lane pairing.
  GemmRun gemm_bfp8(std::span<const float> a, int m, int k,
                    std::span<const float> b, int n);

  /// Same numerics and cycle model through the vectorized functional path
  /// (bfp_gemm_dispatch at the process-wide active_kernel_tier()) —
  /// bit-identical to the golden reference for every tier by construction
  /// and pinned by tests/test_golden_diff.cpp.
  ///
  /// `pool` (optional) spreads the independent 8-column output tiles of a
  /// large MatMul across workers — the software analogue of the paper's
  /// per-array output-tile partitioning. Bit-identical to the serial path
  /// for any worker count (tiles share no state; each tile's k-reduction
  /// order is unchanged), and the analytic cycle model is unaffected.
  ///
  /// B is quantized on every call, so this overload is for a B that
  /// changes per call: the activation x activation GEMMs (attention
  /// scores and context). Weights are quantized once and passed through
  /// the BfpMatrix overload — CompiledModel's resident constants,
  /// VitModel::forward_mixed's and ClusterExecutor's resident weights.
  GemmRun gemm_bfp8_fast(std::span<const float> a, int m, int k,
                         std::span<const float> b, int n,
                         ThreadPool* pool = nullptr) const;

  /// Same, with B (k x n) already quantized: quantize_matrix(b, k, n,
  /// config().bfp_format(), config().quant_round), e.g. a weight
  /// quantized once and kept resident. The float overload is exactly that
  /// quantization followed by this call. `pool` may be null.
  GemmRun gemm_bfp8_fast(std::span<const float> a, int m, int k,
                         const BfpMatrix& b, int n, ThreadPool* pool) const;

  /// ---- fp32 vector modes ----

  /// Elementwise multiply: out[i] = x[i] * y[i], streamed across the 4
  /// active lanes (Fig. 5 (b)).
  VecRun fp32_mul_stream(std::span<const float> x, std::span<const float> y);

  /// Elementwise add on the shifter/ACC path (DSPs idle).
  VecRun fp32_add_stream(std::span<const float> x, std::span<const float> y);

  /// ---- bf16 extension mode (see numerics/bf16.hpp) ----

  /// Elementwise bf16 multiply: operands round to bf16, one DSP product
  /// per element, results widened back to float. 8 lanes (2x the fp32 lane
  /// count: bf16 halves the bytes per operand on the 128-bit buffer port).
  VecRun bf16_mul_stream(std::span<const float> x, std::span<const float> y);

  /// bf16 lanes per unit.
  static constexpr int kBf16Lanes = 8;

  /// ---- analytic cycle models (Eqns 9 / 10) ----

  /// Cycles to stream `n_x` X blocks against one resident Y (pair).
  static std::uint64_t bfp_run_cycles(const PeArrayConfig& cfg, int n_x);

  /// Cycles for an fp32 stream of per-lane length `l`.
  static std::uint64_t fp32_run_cycles(const PeArrayConfig& cfg, int l);

  /// Total compute cycles of a tiled (m x k x n) bfp8 GEMM under the PU's
  /// sequencing (used by the end-to-end latency model).
  static std::uint64_t gemm_cycles(const PuConfig& cfg, int m, int k, int n);

  /// Theoretical peak bfp8 throughput in ops/s (Eqn 7).
  static double bfp_peak_ops(const PuConfig& cfg);

  /// Theoretical peak fp32 throughput in FLOP/s (Eqn 8; counting the
  /// cascade add, i.e. 2 FLOPs per lane-cycle — see DESIGN.md calibration).
  static double fp32_peak_flops(const PuConfig& cfg);

  /// Theoretical peak bf16 throughput in FLOP/s (extension: 8 lanes).
  static double bf16_peak_flops(const PuConfig& cfg);

  /// Cycles for a bf16 stream of per-lane length `l` (L + 2 pipeline).
  static std::uint64_t bf16_run_cycles(int l);

  const PuConfig& config() const { return cfg_; }
  const Counters& counters() const { return counters_; }
  const PeArray& array() const { return array_; }

  /// Attach a (caller-owned) trace sink; pass nullptr to detach. When a
  /// trace is attached and enabled, the controller records mode changes
  /// and per-pass events with running cycle stamps.
  void set_trace(Trace* trace) { trace_ = trace; }

  void reset();

 private:
  /// Execute one Y-stationary pass: stream `xs` against (y0, y1),
  /// accumulating into PSU slots [slot_base ..].
  std::uint64_t bfp_pass(const BfpBlock& y0, const BfpBlock* y1,
                         std::span<const BfpBlock> xs, int slot_base);

  void trace_event(std::uint64_t cycle, const char* component,
                   std::string message) const;

  PuConfig cfg_;
  PeArray array_;
  ExponentUnit eu_;
  PsuBuffer psu_;
  OperandBuffer x_buf_;
  OperandBuffer y_buf_;
  Counters counters_;
  Trace* trace_ = nullptr;
};

}  // namespace bfpsim
