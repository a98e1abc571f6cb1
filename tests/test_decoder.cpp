// Tests for the LLM decode analysis module.
#include "transformer/decoder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "compiler/spec_registry.hpp"
#include "runtime/decode_serve.hpp"

namespace bfpsim {
namespace {

TEST(DecoderConfig, ParamCounts) {
  // 12 * d^2 per layer for ffn_mult = 4.
  const DecoderConfig c = opt_1_3b();
  EXPECT_EQ(c.params_per_layer(), 12ll * 2048 * 2048);
  EXPECT_EQ(c.total_params(), 24ll * 12 * 2048 * 2048);
  // opt-1.3b's published weight count is ~1.3B incl. embeddings; the
  // block-weight count lands close below it.
  EXPECT_NEAR(static_cast<double>(c.total_params()) / 1e9, 1.21, 0.02);
}

TEST(DecoderConfig, Validation) {
  DecoderConfig bad = opt_125m();
  bad.num_heads = 7;  // 768 % 7 != 0
  EXPECT_THROW(bad.validate(), Error);
  bad = opt_125m();
  bad.context_len = 0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(DecodeAnalysis, CapacityStory) {
  const AcceleratorSystem sys;
  const DecodeAnalysis small = analyze_decode(opt_125m(), sys, 8.0);
  EXPECT_TRUE(small.fits_hbm_bfp8);
  EXPECT_TRUE(small.fits_hbm_fp16);
  const DecodeAnalysis big = analyze_decode(opt_6_7b(), sys, 8.0);
  // The paper's compression argument: 6.7B fits only in bfp8.
  EXPECT_TRUE(big.fits_hbm_bfp8);
  EXPECT_FALSE(big.fits_hbm_fp16);
  // ~3.94x smaller than fp32 = ~1.97x smaller than fp16.
  EXPECT_NEAR(big.model_gib_fp16 / big.model_gib_bfp8, 1.97, 0.02);
}

TEST(DecodeAnalysis, ScheduleLimitedAndMonotone) {
  const AcceleratorSystem sys;
  const DecodeAnalysis a = analyze_decode(opt_1_3b(), sys, 8.0);
  // Single-stream decode: scheduled cost far above the ideal stream.
  EXPECT_FALSE(a.bandwidth_bound);
  EXPECT_GT(a.compute_cycles, 5 * a.bandwidth_cycles);
  EXPECT_EQ(a.cycles_per_token, a.compute_cycles);
  // Bigger models decode slower.
  const DecodeAnalysis s = analyze_decode(opt_125m(), sys, 8.0);
  EXPECT_GT(s.tokens_per_second, a.tokens_per_second);
}

TEST(DecodeAnalysis, BatchingImprovesAggregateThroughput) {
  const AcceleratorSystem sys;
  const DecodeAnalysis b1 = analyze_decode(opt_1_3b(), sys, 8.0, 1);
  const DecodeAnalysis b8 = analyze_decode(opt_1_3b(), sys, 8.0, 8);
  EXPECT_GT(b8.tokens_per_second, 2.0 * b1.tokens_per_second);
  // Per-step cost grows, but sublinearly in batch for the weight GEMMs.
  EXPECT_GT(b8.compute_cycles, b1.compute_cycles);
  EXPECT_LT(b8.compute_cycles, 8 * b1.compute_cycles);
}

TEST(PrefillAnalysis, HighUtilizationUnlikeDecode) {
  const AcceleratorSystem sys;
  const PrefillAnalysis pf = analyze_prefill(opt_1_3b(), sys, 1024);
  EXPECT_GT(pf.peak_fraction, 0.5);   // prefill behaves like the ViT study
  EXPECT_GT(pf.sustained_gops, 1000.0);
  const DecodeAnalysis d = analyze_decode(opt_1_3b(), sys, 8.0);
  EXPECT_LT(d.compute_utilization, 0.1);  // decode collapses
  // Longer prompts take longer.
  const PrefillAnalysis shorter = analyze_prefill(opt_1_3b(), sys, 128);
  EXPECT_LT(shorter.cycles, pf.cycles);
  EXPECT_THROW(analyze_prefill(opt_1_3b(), sys, 0), Error);
}

TEST(DecodeAnalysis, RejectsBadBatch) {
  const AcceleratorSystem sys;
  EXPECT_THROW(analyze_decode(opt_125m(), sys, 8.0, 0), Error);
}

// Absolute pins of the per-token decode cost model: every field of
// spec_decode_costs and analyze_decode at fixed shapes, so a rewrite of
// either must reproduce today's numbers bit for bit.
struct SpecCostPin {
  const char* spec;
  int len;
  int batch;
  std::int64_t params;
  double weight_bytes_bfp8;
  double kv_bytes;
  std::uint64_t compute_cycles;
  std::uint64_t bandwidth_cycles;
  std::uint64_t cycles_per_token;
  bool bandwidth_bound;
};

TEST(DecodeCostPins, SpecDecodeCostsEveryField) {
  const SpecCostPin pins[] = {
      {"llm-decode", 1, 1, 1207959552, 1226833920, 99840, 12635136U, 1278056U, 12635136U, false},
      {"llm-decode", 1, 8, 1207959552, 1226833920, 99840, 14376960U, 1278784U, 14376960U, false},
      {"llm-decode", 512, 1, 1207959552, 1226833920, 51118080, 14598144U, 1331200U, 14598144U, false},
      {"llm-decode", 512, 8, 1207959552, 1226833920, 51118080, 30081024U, 1703936U, 30081024U, false},
      {"llm-decode", 1024, 1, 1207959552, 1226833920, 102236160, 16588800U, 1384448U, 16588800U, false},
      {"llm-decode", 1024, 8, 1207959552, 1226833920, 102236160, 46006272U, 2129920U, 46006272U, false},
      {"llama-tiny", 1, 1, 73728, 74880, 130, 4320U, 78U, 4320U, false},
      {"llama-tiny", 1, 8, 73728, 74880, 130, 10368U, 79U, 10368U, false},
      {"llama-tiny", 16, 1, 73728, 74880, 2080, 4608U, 80U, 4608U, false},
      {"llama-tiny", 16, 8, 73728, 74880, 2080, 12672U, 95U, 12672U, false},
      {"llama-tiny", 32, 1, 73728, 74880, 4160, 5184U, 82U, 5184U, false},
      {"llama-tiny", 32, 8, 73728, 74880, 4160, 17280U, 112U, 17280U, false},
  };
  const AcceleratorSystem sys;
  for (const SpecCostPin& p : pins) {
    SCOPED_TRACE(std::string(p.spec) + " len=" + std::to_string(p.len) +
                 " batch=" + std::to_string(p.batch));
    const SpecDecodeCosts c =
        spec_decode_costs(load_model_spec(p.spec), sys, p.len, p.batch);
    EXPECT_EQ(c.params, p.params);
    EXPECT_EQ(c.weight_bytes_bfp8, p.weight_bytes_bfp8);
    EXPECT_EQ(c.kv_bytes, p.kv_bytes);
    EXPECT_EQ(c.compute_cycles, p.compute_cycles);
    EXPECT_EQ(c.bandwidth_cycles, p.bandwidth_cycles);
    EXPECT_EQ(c.cycles_per_token, p.cycles_per_token);
    EXPECT_EQ(c.bandwidth_bound, p.bandwidth_bound);
  }
}

struct AnalysisPin {
  const char* model;
  int batch;
  std::int64_t params;
  double weight_bytes_bfp8;
  double kv_bytes;
  double macs_per_token;
  std::uint64_t compute_cycles;
  std::uint64_t bandwidth_cycles;
  std::uint64_t cycles_per_token;
  double tokens_per_second;
  double compute_utilization;
  bool bandwidth_bound;
  double model_gib_bfp8;
  double model_gib_fp16;
  bool fits_hbm_bfp8;
  bool fits_hbm_fp16;
};

TEST(DecodeCostPins, AnalyzeDecodeEveryField) {
  const AnalysisPin pins[] = {
      {"opt-125m", 1, 84934656, 86261760, 19169280, 103809024, 1700352U, 109824U, 1700352U, 176.43405600722673, 0.015898825654923215, false, 0.0803375244140625, 0.158203125, true, true},
      {"opt-125m", 8, 84934656, 86261760, 19169280, 830472192, 7216128U, 249600U, 7216128U, 332.58833546189868, 0.029970200085142614, false, 0.0803375244140625, 0.158203125, true, true},
      {"opt-1.3b", 1, 1207959552, 1226833920, 102236160, 1308622848, 16588800U, 1384448U, 16588800U, 18.08449074074074, 0.020543209876543209, false, 1.142578125, 2.25, true, true},
      {"opt-1.3b", 8, 1207959552, 1226833920, 102236160, 10468982784, 46006272U, 2129920U, 46006272U, 52.166800213675216, 0.059259259259259262, false, 1.142578125, 2.25, true, true},
  };
  const AcceleratorSystem sys;
  for (const AnalysisPin& p : pins) {
    SCOPED_TRACE(std::string(p.model) + " batch=" + std::to_string(p.batch));
    const DecoderConfig cfg =
        std::string(p.model) == "opt-125m" ? opt_125m() : opt_1_3b();
    const DecodeAnalysis a = analyze_decode(cfg, sys, 8.0, p.batch);
    EXPECT_EQ(a.params, p.params);
    EXPECT_EQ(a.weight_bytes_bfp8, p.weight_bytes_bfp8);
    EXPECT_EQ(a.kv_bytes, p.kv_bytes);
    EXPECT_EQ(a.macs_per_token, p.macs_per_token);
    EXPECT_EQ(a.compute_cycles, p.compute_cycles);
    EXPECT_EQ(a.bandwidth_cycles, p.bandwidth_cycles);
    EXPECT_EQ(a.cycles_per_token, p.cycles_per_token);
    EXPECT_EQ(a.tokens_per_second, p.tokens_per_second);
    EXPECT_EQ(a.compute_utilization, p.compute_utilization);
    EXPECT_EQ(a.bandwidth_bound, p.bandwidth_bound);
    EXPECT_EQ(a.model_gib_bfp8, p.model_gib_bfp8);
    EXPECT_EQ(a.model_gib_fp16, p.model_gib_fp16);
    EXPECT_EQ(a.fits_hbm_bfp8, p.fits_hbm_bfp8);
    EXPECT_EQ(a.fits_hbm_fp16, p.fits_hbm_fp16);
  }
}

}  // namespace
}  // namespace bfpsim
