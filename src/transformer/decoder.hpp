// Decoder-only (LLM) workload analysis — the models the paper's
// introduction leads with ("the largest OPT model contains 175B
// parameters"). Autoregressive decoding is a different regime from the
// ViT case study: every generated token multiplies 1 x d activations
// against every weight matrix (GEMV), so
//
//   * the 8x8 bfp block forces m=1 rows up to 8 (only 1/8 of each streamed
//     X block is real work), and
//   * weights stream from HBM once per token, making decode bandwidth-
//     bound — where bfp8's 4x compression over fp32 (2x over fp16)
//     directly multiplies tokens/s and model capacity.
//
// This module quantifies both effects with the same system model used for
// the paper's tables.
#pragma once

#include <cstdint>
#include <string>

#include "fabric/system.hpp"

namespace bfpsim {

/// Decoder-only transformer configuration (GPT/OPT-style).
struct DecoderConfig {
  std::string name = "opt-1.3b";
  int d_model = 2048;
  int num_layers = 24;
  int num_heads = 32;
  int ffn_mult = 4;
  int context_len = 1024;  ///< resident KV length during decode

  std::int64_t ffn_hidden() const {
    return static_cast<std::int64_t>(d_model) * ffn_mult;
  }
  /// Weight parameters per layer (QKV + proj + 2 FFN matrices).
  std::int64_t params_per_layer() const;
  std::int64_t total_params() const;

  void validate() const;
};

DecoderConfig opt_125m();
DecoderConfig opt_350m();
DecoderConfig opt_1_3b();
DecoderConfig opt_6_7b();
DecoderConfig opt_13b();

/// What one decode step streams, GQA- and SwiGLU-aware: the K/V
/// projections and the KV cache are kv_dim = kv_heads * head_dim channels
/// wide, and a SwiGLU MLP streams three FFN matrices instead of two. A
/// DecoderConfig is the plain-MHA (kv_dim = d_model), two-matrix case.
struct DecodeShape {
  int d_model = 0;
  int layers = 0;
  int heads = 0;
  int kv_dim = 0;
  std::int64_t ffn_hidden = 0;
  bool swiglu = false;

  /// bfp8 bytes of the K/V cache over all layers for `len` tokens.
  double kv_bytes(int len) const;
};

/// The paged-KV reservation of one decode stream: what serve_decode
/// allocates and verify_model_spec checks against the arena.
struct KvReservation {
  std::uint64_t bytes_per_token = 0;  ///< bfp8 K/V bytes, all layers
  /// Arena bytes one page costs, the allocator's alignment included.
  std::uint64_t page_cost = 0;
  std::uint64_t context_pages = 0;  ///< pages of one full-context stream

  /// serve_decode's default arena: exactly one full-context stream.
  std::uint64_t default_arena() const { return context_pages * page_cost; }
};

/// The reservation of a `context`-token stream in pages of `page_tokens`
/// (>= 1) tokens.
KvReservation kv_reservation(const DecodeShape& shape, int context,
                             int page_tokens);

/// Per-token cost of one decode step.
struct DecodeStepCosts {
  std::int64_t params = 0;            ///< weight parameters (decoder stack)
  double weight_bytes_bfp8 = 0.0;     ///< streamed per token
  double kv_bytes = 0.0;              ///< K/V cache read per token (bfp8)
  std::uint64_t compute_cycles = 0;   ///< tiled-GEMM latency model (padded)
  std::uint64_t bandwidth_cycles = 0; ///< weights+KV over aggregate HBM
  std::uint64_t cycles_per_token = 0; ///< max of the two
  bool bandwidth_bound = false;
};

/// The one per-token decode cost model, behind analyze_decode and the
/// spec-driven decode server: the step's GEMMs at KV length `len` for
/// `batch` concurrent streams through the tiled latency model (activation
/// rows padded up to the 8-row block, per-pass weight streaming at
/// achievable burst sizes, KV attention per stream), against the ideal
/// stream of the weights once per step plus each stream's KV over the
/// aggregate HBM interface of all units.
DecodeStepCosts decode_step_costs(const DecodeShape& shape,
                                  const AcceleratorSystem& sys, int len,
                                  int batch);

/// Per-token decode analysis on a given system: the step costs at the
/// full context plus throughput and capacity.
struct DecodeAnalysis : DecodeStepCosts {
  double macs_per_token = 0.0;
  double tokens_per_second = 0.0;
  double compute_utilization = 0.0;   ///< useful MACs / peak during decode

  /// Capacity check: does the bfp8 model image fit the device HBM?
  double model_gib_bfp8 = 0.0;
  double model_gib_fp16 = 0.0;
  bool fits_hbm_bfp8 = false;
  bool fits_hbm_fp16 = false;
};

/// Analyze decode of `cfg` on `sys` with `batch` concurrent streams
/// (batched decode multiplies the activation rows per GEMV: batch 8 fills
/// the 8-row bfp block exactly), with `hbm_gib` of device memory and the
/// system's aggregate HBM bandwidth.
///
/// `compute_cycles` is the *scheduled* tiled execution (including each
/// pass's weight-streaming I/O at its achievable burst sizes);
/// `bandwidth_cycles` is the ideal weights+KV stream lower bound. Their
/// ratio measures how far the ViT-oriented tiling is from a decode-optimal
/// dataflow.
DecodeAnalysis analyze_decode(const DecoderConfig& cfg,
                              const AcceleratorSystem& sys,
                              double hbm_gib = 8.0, int batch = 1);

/// Prefill (prompt processing) analysis: the same layers at
/// m = prompt_len rows — large GEMMs, the regime the paper's ViT study
/// already covers. Reporting it beside decode exposes the classic
/// prefill/decode asymmetry.
struct PrefillAnalysis {
  int prompt_len = 0;
  std::uint64_t cycles = 0;
  double macs = 0.0;
  double seconds = 0.0;
  double sustained_gops = 0.0;       ///< 2*macs / time
  double peak_fraction = 0.0;
};

PrefillAnalysis analyze_prefill(const DecoderConfig& cfg,
                                const AcceleratorSystem& sys,
                                int prompt_len = 1024);

}  // namespace bfpsim
