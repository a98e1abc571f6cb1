// Ablation E11 — the motivating accuracy claim: bfp8 preserves transformer
// accuracy without retraining where per-tensor int8 does not.
//
// Three experiments:
//  1) tensor round-trip error on activation-like data with outlier
//     channels (int8 per-tensor vs bfp8 per-block),
//  2) GEMM error against fp32 on the same data, and
//  3) an end-to-end synthetic ViT encoder: mixed-precision forward vs fp32
//     reference (SNR, cosine similarity, top-1 agreement).
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fabric/system.hpp"
#include "numerics/format/registry.hpp"
#include "numerics/quantizer.hpp"
#include "pu/baseline_arrays.hpp"
#include "transformer/model.hpp"

namespace {

std::vector<float> outlier_matrix(bfpsim::Rng& rng, int rows, int cols,
                                  int outlier_channels, float scale) {
  std::vector<float> a(static_cast<std::size_t>(rows) * cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      float v = rng.normal(0.0F, 1.0F);
      if (j < outlier_channels) v *= scale;
      a[static_cast<std::size_t>(i) * cols + j] = v;
    }
  }
  return a;
}

}  // namespace

int main() {
  using namespace bfpsim;
  Rng rng(777);

  std::cout << "E11: bfp8 vs int8 accuracy without retraining\n\n";

  // ---- 1) round-trip error vs outlier strength ----
  std::cout << "1) Activation round-trip SNR (64x384 tensor, 8 outlier "
               "channels of growing magnitude)\n\n";
  TextTable t1({"outlier scale", "int8 per-tensor SNR (dB)",
                "bfp8 per-block SNR (dB)", "bfp8 advantage (dB)"});
  for (float scale : {1.0F, 5.0F, 10.0F, 20.0F, 50.0F, 100.0F}) {
    const auto a = outlier_matrix(rng, 64, 384, 8, scale);
    const auto i8 = quantize_int8_per_tensor(a).dequantize();
    const auto b8 = bfp_roundtrip(a, 64, 384, bfp8_format());
    const double snr_i8 = compute_error_stats(i8, a).snr_db;
    const double snr_b8 = compute_error_stats(b8, a).snr_db;
    t1.add_row({fmt_double(scale, 0), fmt_double(snr_i8, 2),
                fmt_double(snr_b8, 2), fmt_double(snr_b8 - snr_i8, 2)});
  }
  std::cout << t1 << "\n";

  // ---- 2) GEMM error vs fp32 ----
  std::cout << "2) GEMM (128x384x384) output SNR vs fp32, activations with "
               "outlier channels (scale 20)\n\n";
  {
    const int m = 128;
    const int k = 384;
    const int n = 384;
    const auto a = outlier_matrix(rng, m, k, 8, 20.0F);
    const auto w = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F,
                                  0.05F);
    std::vector<float> ref(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int x = 0; x < k; ++x) {
          acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
                 w[static_cast<std::size_t>(x) * n + j];
        }
        ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
      }
    }
    Int8Accelerator i8;
    ProcessingUnit pu;
    const double snr_i8 =
        compute_error_stats(i8.gemm_int8(a, m, k, w, n).c, ref).snr_db;
    // The stronger conventional baseline: per-channel weight scales with
    // per-tensor activations (the practical int8 deployment).
    const auto pc = int8_gemm_per_channel(
        quantize_int8_per_tensor(a), quantize_int8_per_channel(w, k, n), m,
        k, n);
    const double snr_pc = compute_error_stats(pc, ref).snr_db;
    const double snr_b8 =
        compute_error_stats(pu.gemm_bfp8_fast(a, m, k, w, n).c, ref).snr_db;
    TextTable t2({"datapath", "GEMM SNR vs fp32 (dB)"});
    t2.add_row({"int8 per-tensor act + weights", fmt_double(snr_i8, 2)});
    t2.add_row({"int8 per-tensor act + per-channel w",
                fmt_double(snr_pc, 2)});
    t2.add_row({"bfp8 per-block (ours)", fmt_double(snr_b8, 2)});
    std::cout << t2 << "\n";
    std::cout << "   (per-channel scales fix the *weights* but cannot fix "
                 "the activations, whose\n    outlier channels are the "
                 "real problem — exactly the gap per-block bfp8 closes)\n\n";
  }

  // ---- 3) end-to-end synthetic encoder ----
  std::cout << "3) End-to-end synthetic ViT encoder (mixed bfp8+fp32 vs "
               "fp32 reference)\n\n";
  {
    const VitConfig cfg = vit_test_tiny();
    const VitModel model(random_weights(cfg, 42));
    const AcceleratorSystem sys;
    std::vector<std::vector<float>> ref_logits;
    std::vector<std::vector<float>> mixed_logits;
    double snr_sum = 0.0;
    double cos_sum = 0.0;
    const int batch = 16;
    for (int i = 0; i < batch; ++i) {
      const auto x = random_embeddings(cfg, 1000 + static_cast<std::uint64_t>(i));
      const auto ref = model.forward_reference(x);
      const auto mix = model.forward_mixed(x, sys);
      snr_sum += compute_error_stats(mix, ref).snr_db;
      cos_sum += cosine_similarity(mix, ref);
      ref_logits.push_back(model.classify(ref));
      mixed_logits.push_back(model.classify(mix));
    }
    TextTable t3({"metric", "value"});
    t3.add_row({"mean feature SNR (dB)", fmt_double(snr_sum / batch, 2)});
    t3.add_row({"mean cosine similarity",
                fmt_double(cos_sum / batch, 5)});
    t3.add_row({"top-1 agreement",
                fmt_percent(100.0 * top1_agreement(ref_logits, mixed_logits),
                            1)});
    std::cout << t3 << "\n";
  }

  // ---- 4) the precision zoo: every registered numeric mode ----
  std::cout << "4) Numeric-mode sweep (registry): round-trip and GEMM SNR "
               "per mode, same outlier\n   regime (64x384 tensor / "
               "64x192x64 GEMM, outlier scale 20)\n\n";
  {
    // Independent stream so sections 1-3 stay byte-identical to the
    // pre-registry bench.
    Rng mrng(4343);
    const int m = 64;
    const int k = 192;
    const int n = 64;
    const auto act = outlier_matrix(mrng, m, k, 8, 20.0F);
    const auto w = mrng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F,
                                   0.05F);
    std::vector<float> ref(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int x = 0; x < k; ++x) {
          acc += static_cast<double>(
                     act[static_cast<std::size_t>(i) * k + x]) *
                 w[static_cast<std::size_t>(x) * n + j];
        }
        ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
      }
    }
    TextTable t4({"mode", "round-trip SNR (dB)", "GEMM SNR vs fp32 (dB)"});
    for (const NumericMode& mode : numeric_modes()) {
      const auto rt = mode_roundtrip_matrix(mode, act, m, k);
      const auto c = mode_gemm_reference(mode, act, m, k, w, n);
      t4.add_row({mode.name,
                  fmt_double(compute_error_stats(rt, act).snr_db, 2),
                  fmt_double(compute_error_stats(c, ref).snr_db, 2)});
    }
    std::cout << t4 << "\n";
    std::cout << "   (per-block bfp8 rides out the outlier channels that "
                 "sink per-element fp8;\n    only wider element formats — "
                 "bf16, sliced fp32 — buy the SNR back)\n\n";
  }

  std::cout << "Expectation (paper Section I, citing [11]): block "
               "floating point preserves\naccuracy without "
               "quantization-aware retraining; per-tensor int8 degrades\n"
               "sharply once activation outliers stretch the scale.\n";
  return 0;
}
