#include "transformer/decoder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fabric/hbm.hpp"
#include "fabric/memory_interface.hpp"
#include "pu/processing_unit.hpp"

namespace bfpsim {

void DecoderConfig::validate() const {
  BFP_REQUIRE(d_model > 0 && num_layers > 0 && num_heads > 0 &&
                  ffn_mult > 0 && context_len > 0,
              "DecoderConfig: all fields must be positive");
  BFP_REQUIRE(d_model % num_heads == 0,
              "DecoderConfig: d_model must be a multiple of num_heads");
}

std::int64_t DecoderConfig::params_per_layer() const {
  const auto d = static_cast<std::int64_t>(d_model);
  // QKV (d x 3d) + output projection (d x d) + FFN up (d x f) + down (f x d).
  return d * 3 * d + d * d + 2 * d * ffn_hidden();
}

std::int64_t DecoderConfig::total_params() const {
  return params_per_layer() * num_layers;
}

DecoderConfig opt_125m() {
  return {"opt-125m", 768, 12, 12, 4, 1024};
}
DecoderConfig opt_350m() {
  return {"opt-350m", 1024, 24, 16, 4, 1024};
}
DecoderConfig opt_1_3b() {
  return {"opt-1.3b", 2048, 24, 32, 4, 1024};
}
DecoderConfig opt_6_7b() {
  return {"opt-6.7b", 4096, 32, 32, 4, 1024};
}
DecoderConfig opt_13b() {
  return {"opt-13b", 5120, 40, 40, 4, 1024};
}

namespace {

/// bfp8 storage cost per element (65 bytes per 64-element block).
constexpr double kBfpBytesPerElem =
    static_cast<double>(kBfpBlockBytes) / 64.0;

}  // namespace

double DecodeShape::kv_bytes(int len) const {
  return static_cast<double>(layers) * 2.0 * static_cast<double>(len) *
         static_cast<double>(kv_dim) * kBfpBytesPerElem;
}

KvReservation kv_reservation(const DecodeShape& shape, int context,
                             int page_tokens) {
  BFP_REQUIRE(page_tokens >= 1, "kv_reservation: page_tokens must be >= 1");
  const auto pt = static_cast<std::uint64_t>(page_tokens);
  KvReservation r;
  r.bytes_per_token = static_cast<std::uint64_t>(shape.kv_bytes(1));
  // Each page pays the allocator's alignment on both ends.
  r.page_cost = pt * r.bytes_per_token + 2 * kHbmAlignment;
  r.context_pages = (static_cast<std::uint64_t>(context) + pt - 1) / pt;
  return r;
}

DecodeStepCosts decode_step_costs(const DecodeShape& shape,
                                  const AcceleratorSystem& sys, int len,
                                  int batch) {
  BFP_REQUIRE(len >= 1 && batch >= 1,
              "decode_step_costs: len and batch must be positive");
  const auto d = static_cast<std::int64_t>(shape.d_model);
  const auto kv = static_cast<std::int64_t>(shape.kv_dim);
  const std::int64_t f = shape.ffn_hidden;
  const std::int64_t up_matrices = shape.swiglu ? 2 : 1;  // SwiGLU: gate, up
  const auto layers = static_cast<std::int64_t>(shape.layers);
  const int hd = shape.d_model / shape.heads;

  DecodeStepCosts c;
  c.params = (d * (d + 2 * kv) + d * d + (up_matrices + 1) * d * f) * layers;
  c.weight_bytes_bfp8 = static_cast<double>(c.params) * kBfpBytesPerElem;
  c.kv_bytes = shape.kv_bytes(len);

  auto add = [&](std::int64_t m, std::int64_t k, std::int64_t n,
                 std::int64_t times) {
    c.compute_cycles += sys.gemm_latency(m, k, n).cycles *
                        static_cast<std::uint64_t>(times);
  };
  add(batch, d, d + 2 * kv, layers);                      // fused QKV
  add(1, hd, len, layers * shape.heads * batch);          // q K^T
  add(1, len, hd, layers * shape.heads * batch);          // p V
  add(batch, d, d, layers);                               // proj
  add(batch, d, f, up_matrices * layers);                 // FFN up
  add(batch, f, d, layers);                               // FFN down

  const double agg_bytes_per_cycle =
      static_cast<double>(sys.memory().hbm().bytes_per_cycle_total()) *
      sys.config().num_units;
  c.bandwidth_cycles = static_cast<std::uint64_t>(
      (c.weight_bytes_bfp8 + c.kv_bytes * batch) / agg_bytes_per_cycle);
  c.cycles_per_token = std::max(c.compute_cycles, c.bandwidth_cycles);
  c.bandwidth_bound = c.bandwidth_cycles > c.compute_cycles;
  return c;
}

DecodeAnalysis analyze_decode(const DecoderConfig& cfg,
                              const AcceleratorSystem& sys,
                              double hbm_gib, int batch) {
  cfg.validate();
  DecodeAnalysis a;
  static_cast<DecodeStepCosts&>(a) = decode_step_costs(
      {cfg.d_model, cfg.num_layers, cfg.num_heads, cfg.d_model,
       cfg.ffn_hidden(), false},
      sys, cfg.context_len, batch);

  a.macs_per_token = (static_cast<double>(a.params) +
                      2.0 * static_cast<double>(cfg.context_len) *
                          static_cast<double>(cfg.d_model) * cfg.num_layers) *
                     batch;
  const double freq = sys.config().pu.freq_hz;
  a.tokens_per_second =
      batch * freq /
      static_cast<double>(std::max<std::uint64_t>(1, a.cycles_per_token));
  const double peak_macs_per_cycle = sys.peak_bfp_system() / freq / 2.0;
  a.compute_utilization =
      a.macs_per_token /
      (static_cast<double>(a.cycles_per_token) * peak_macs_per_cycle);

  const double gib = 1024.0 * 1024.0 * 1024.0;
  a.model_gib_bfp8 = a.weight_bytes_bfp8 / gib;
  a.model_gib_fp16 = static_cast<double>(a.params) * 2.0 / gib;
  a.fits_hbm_bfp8 = a.model_gib_bfp8 + a.kv_bytes / gib < hbm_gib;
  a.fits_hbm_fp16 =
      a.model_gib_fp16 + 2.0 * a.kv_bytes / gib < hbm_gib;
  return a;
}

PrefillAnalysis analyze_prefill(const DecoderConfig& cfg,
                                const AcceleratorSystem& sys,
                                int prompt_len) {
  cfg.validate();
  BFP_REQUIRE(prompt_len >= 1, "analyze_prefill: prompt_len must be >= 1");
  PrefillAnalysis a;
  a.prompt_len = prompt_len;

  const auto d = static_cast<std::int64_t>(cfg.d_model);
  const auto p = static_cast<std::int64_t>(prompt_len);
  const int hd = cfg.d_model / cfg.num_heads;
  auto add = [&](std::int64_t m, std::int64_t k, std::int64_t n,
                 std::int64_t times) {
    a.cycles += sys.gemm_latency(m, k, n).cycles *
                static_cast<std::uint64_t>(times);
    a.macs += static_cast<double>(m) * static_cast<double>(k) *
              static_cast<double>(n) * static_cast<double>(times);
  };
  add(p, d, 3 * d, cfg.num_layers);                     // QKV
  add(p, hd, p, cfg.num_layers * cfg.num_heads);        // Q K^T
  add(p, p, hd, cfg.num_layers * cfg.num_heads);        // P V
  add(p, d, d, cfg.num_layers);                         // proj
  add(p, d, cfg.ffn_hidden(), cfg.num_layers);          // FFN up
  add(p, cfg.ffn_hidden(), d, cfg.num_layers);          // FFN down

  const double freq = sys.config().pu.freq_hz;
  a.seconds = static_cast<double>(a.cycles) / freq;
  a.sustained_gops = 2.0 * a.macs / a.seconds / 1e9;
  a.peak_fraction = a.sustained_gops * 1e9 / sys.peak_bfp_system();
  return a;
}

}  // namespace bfpsim
