// Tests for the transformer substrate: op counting, Table IV as the priced
// program rolled up by graph-op family, and mixed-precision forward
// accuracy on a small model.
#include "transformer/model.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "common/stats.hpp"
#include "compiler/partition.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"

namespace bfpsim {
namespace {

TEST(VitConfig, TokenCounts) {
  EXPECT_EQ(deit_small().tokens(), 197);
  EXPECT_EQ(deit_tiny().tokens(), 197);
  EXPECT_EQ(deit_small().head_dim(), 64);
  EXPECT_EQ(deit_small().mlp_hidden(), 1536);
  EXPECT_EQ(vit_test_tiny().tokens(), 17);
}

TEST(VitConfig, Validation) {
  VitConfig bad = deit_small();
  bad.embed_dim = 100;  // not a multiple of heads=6
  EXPECT_THROW(bad.validate(), Error);
}

TEST(OpCounts, DeitSmallLinearMacs) {
  const LinearOpCounts c = count_linear_macs(deit_small());
  // Per block: QKV 197*384*1152 = 87.2M, attention 2*6*197*197*64 = 29.8M,
  // proj 29.1M, MLP 232.4M -> ~378.5M MACs; x12 blocks ~4.54G.
  EXPECT_NEAR(static_cast<double>(c.total_macs()) / 1e9, 4.54, 0.05);
  EXPECT_EQ(c.qkv, 12ull * 197 * 384 * 1152);
  EXPECT_EQ(c.attn_qk, c.attn_av);
  EXPECT_EQ(c.mlp, 12ull * 2 * 197 * 384 * 1536);
}

TEST(TableIV, ShapeMatchesPaperClaims) {
  const AcceleratorSystem sys;
  const WorkloadBreakdown b = workload_breakdown(
      compile_vit(deit_small(), sys), sys.config().pu.freq_hz);
  ASSERT_EQ(b.rows.size(), 6u);
  EXPECT_STREQ(b.rows[0].partition, "bfp8 MatMul");
  // The paper's headline claims: fp32 is a tiny share of the operations...
  EXPECT_LT(b.fp32_ops_share, 0.05);
  // ...but dominates the end-to-end latency.
  EXPECT_GT(b.fp32_latency_share, 0.60);
  // SoftMax is the largest latency contributor (Table IV: 65.9%).
  for (const WorkloadRow& r : b.rows) {
    EXPECT_LE(r.cycles, b.row(Partition::kSoftmax).cycles) << r.partition;
  }
  // Proportions sum to one.
  double ops_sum = 0.0;
  double lat_sum = 0.0;
  for (const auto& r : b.rows) {
    ops_sum += r.ops_proportion;
    lat_sum += r.latency_proportion;
  }
  EXPECT_NEAR(ops_sum, 1.0, 1e-9);
  EXPECT_NEAR(lat_sum, 1.0, 1e-9);
}

TEST(TableIV, EveryGraphOpLandsInOneDocumentedRow) {
  const struct {
    GraphOp op;
    Partition row;
  } table[] = {
      {GraphOp::kInput, Partition::kDataMovement},
      {GraphOp::kConstant, Partition::kDataMovement},
      {GraphOp::kMatMul, Partition::kMatMul},
      {GraphOp::kAdd, Partition::kResidualBias},
      {GraphOp::kMul, Partition::kResidualBias},
      {GraphOp::kScale, Partition::kResidualBias},
      {GraphOp::kBiasAdd, Partition::kResidualBias},
      {GraphOp::kTranspose, Partition::kDataMovement},
      {GraphOp::kSliceCols, Partition::kDataMovement},
      {GraphOp::kConcatCols, Partition::kDataMovement},
      {GraphOp::kLayerNorm, Partition::kLayerNorm},
      {GraphOp::kSoftmax, Partition::kSoftmax},
      {GraphOp::kGelu, Partition::kGelu},
      {GraphOp::kSilu, Partition::kGelu},
      {GraphOp::kRmsNorm, Partition::kLayerNorm},
      {GraphOp::kRope, Partition::kResidualBias},
      {GraphOp::kFusedBiasGelu, Partition::kGelu},
      {GraphOp::kFusedBiasSilu, Partition::kGelu},
      {GraphOp::kFusedBiasResidual, Partition::kResidualBias},
  };
  // One entry per GraphOp, in declaration order.
  ASSERT_EQ(std::size(table),
            static_cast<std::size_t>(GraphOp::kFusedBiasResidual) + 1);
  for (std::size_t i = 0; i < std::size(table); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(table[i].op), i);
    EXPECT_EQ(partition_of(table[i].op), table[i].row)
        << graph_op_name(table[i].op);
  }
}

/// The rows of `cfg`'s Table IV are the cycles the Executor charges: they
/// sum to the program's price, and split it into forward_mixed's linear
/// and vector cycles plus the program's DMA moves.
WorkloadBreakdown expect_rows_are_priced_program(const VitConfig& cfg) {
  const AcceleratorSystem sys;
  const CompiledModel cm = compile_vit(cfg, sys);
  const WorkloadBreakdown b =
      workload_breakdown(cm, sys.config().pu.freq_hz);
  ForwardStats fs;
  (void)VitModel(random_weights(cfg, 42))
      .forward_mixed(random_embeddings(cfg, 1), sys, &fs);
  std::uint64_t sum = 0;
  std::uint64_t fp32 = 0;
  for (const WorkloadRow& r : b.rows) sum += r.cycles;
  for (const Partition p : {Partition::kLayerNorm, Partition::kSoftmax,
                            Partition::kGelu, Partition::kResidualBias}) {
    fp32 += b.row(p).cycles;
  }
  EXPECT_EQ(sum, cm.price().device_cycles) << cfg.name;
  EXPECT_EQ(b.total_cycles, cm.price().device_cycles) << cfg.name;
  EXPECT_EQ(b.row(Partition::kMatMul).cycles, fs.linear_cycles) << cfg.name;
  EXPECT_EQ(fp32, fs.vector_cycles) << cfg.name;
  EXPECT_EQ(b.row(Partition::kDataMovement).cycles, cm.price().move_cycles)
      << cfg.name;
  EXPECT_EQ(b.row(Partition::kDataMovement).mega_ops, 0.0) << cfg.name;
  return b;
}

TEST(TableIV, RowsArePricedProgramVitTinyTest) {
  const VitConfig cfg = vit_config_of(load_model_spec("vit-tiny-test"));
  const WorkloadBreakdown b = expect_rows_are_priced_program(cfg);
  EXPECT_EQ(b.row(Partition::kMatMul).cycles, 6440u);
  EXPECT_EQ(b.row(Partition::kDataMovement).cycles, 1088u);
  EXPECT_EQ(b.total_cycles, 6440u + 23100u + 1088u);
}

TEST(TableIV, RowsArePricedProgramDeitSmall) {
  const WorkloadBreakdown b = expect_rows_are_priced_program(deit_small());
  // The bfp8 MatMul row: every MAC of the 12 blocks, at the GEMM cycles.
  EXPECT_EQ(b.row(Partition::kMatMul).cycles, 2191968u);
  EXPECT_NEAR(b.row(Partition::kMatMul).mega_ops, 9081.4, 0.05);
  EXPECT_EQ(b.row(Partition::kDataMovement).cycles, 586272u);
  EXPECT_EQ(b.total_cycles, 15149280u);
}

TEST(TableIV, DeitTinyMatMulOps) {
  const AcceleratorSystem sys;
  const WorkloadBreakdown b = workload_breakdown(
      compile_vit(deit_tiny(), sys), sys.config().pu.freq_hz);
  EXPECT_NEAR(b.row(Partition::kMatMul).mega_ops, 2449.2, 0.05);
}

TEST(TableIV, SpecOfInvertsVitConfigOf) {
  for (const char* name : {"deit-small", "vit-tiny-test"}) {
    const ModelSpec spec = load_model_spec(name);
    const ModelSpec back = spec_of(vit_config_of(spec));
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.d_model, spec.d_model);
    EXPECT_EQ(back.depth, spec.depth);
    EXPECT_EQ(back.heads, spec.heads);
    EXPECT_EQ(back.kv_heads, spec.kv_heads);
    EXPECT_EQ(back.mlp_hidden, spec.mlp_hidden);
    EXPECT_EQ(back.image_size, spec.image_size);
    EXPECT_EQ(back.patch_size, spec.patch_size);
    EXPECT_EQ(back.num_classes, spec.num_classes);
    EXPECT_EQ(back.seed, spec.seed);
  }
}

TEST(TableIV, SoftermaxLowersSoftmaxOnlyToTheSplitExp) {
  const AcceleratorSystem sys;
  const double freq = sys.config().pu.freq_hz;
  const WorkloadBreakdown plain =
      workload_breakdown(compile_vit(vit_test_tiny(), sys), freq);
  const WorkloadBreakdown fast = workload_breakdown(
      compile_vit(vit_test_tiny(), sys, /*softermax=*/true), freq);
  EXPECT_LT(fast.row(Partition::kSoftmax).cycles,
            plain.row(Partition::kSoftmax).cycles);
  for (std::size_t i = 0; i < kNumPartitions; ++i) {
    if (i == static_cast<std::size_t>(Partition::kSoftmax)) continue;
    EXPECT_EQ(fast.rows[i].cycles, plain.rows[i].cycles) << i;
  }
}

TEST(VitModel, ReferenceForwardIsDeterministic) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 1));
  const auto x = random_embeddings(cfg, 2);
  const auto y1 = model.forward_reference(x);
  const auto y2 = model.forward_reference(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(VitModel, MixedForwardTracksReference) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 3));
  const AcceleratorSystem sys;
  const auto x = random_embeddings(cfg, 4);
  const auto ref = model.forward_reference(x);
  ForwardStats stats;
  const auto mixed = model.forward_mixed(x, sys, &stats);
  const ErrorStats s = compute_error_stats(mixed, ref);
  // bfp8 linear + approximate non-linear: closely tracks fp32 without any
  // retraining (the paper's deployment claim).
  EXPECT_GT(s.snr_db, 20.0);
  EXPECT_GT(cosine_similarity(mixed, ref), 0.995);
  // Stats recorded.
  EXPECT_GT(stats.bfp_macs, 0u);
  EXPECT_GT(stats.linear_cycles, 0u);
  EXPECT_GT(stats.vector_cycles, 0u);
  EXPECT_GT(stats.nonlinear_ops.host_div, 0u);
}

TEST(VitModel, MixedMacCountMatchesAnalytic) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 5));
  const AcceleratorSystem sys;
  ForwardStats stats;
  model.forward_mixed(random_embeddings(cfg, 6), sys, &stats);
  EXPECT_EQ(stats.bfp_macs, count_linear_macs(cfg).total_macs());
}

TEST(VitModel, PrecisionPolicyControlsQuantization) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 10));
  const AcceleratorSystem sys;
  const auto x = random_embeddings(cfg, 11);
  const auto ref = model.forward_reference(x);

  ForwardStats all_stats;
  const auto all = model.forward_mixed(x, sys, &all_stats,
                                       PrecisionPolicy::all_bfp8());
  ForwardStats none_stats;
  const auto none = model.forward_mixed(x, sys, &none_stats,
                                        PrecisionPolicy::all_fp32());
  // The fp32 policy performs no bfp MACs and tracks the reference far more
  // closely (only the nonlinear approximations remain).
  EXPECT_EQ(none_stats.bfp_macs, 0u);
  EXPECT_GT(all_stats.bfp_macs, 0u);
  EXPECT_GT(compute_error_stats(none, ref).snr_db,
            compute_error_stats(all, ref).snr_db + 10.0);

  // A partial policy quantizes strictly fewer MACs than the full one.
  PrecisionPolicy mlp_only = PrecisionPolicy::all_fp32();
  mlp_only.mlp = true;
  ForwardStats part_stats;
  model.forward_mixed(x, sys, &part_stats, mlp_only);
  EXPECT_GT(part_stats.bfp_macs, 0u);
  EXPECT_LT(part_stats.bfp_macs, all_stats.bfp_macs);
}

TEST(VitModel, Int8ForwardRunsAndIsWorseThanMixed) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 8));
  const AcceleratorSystem sys;
  // Channel-structured outliers make per-tensor int8 (with its int8
  // residual stream) measurably worse than the bfp8+fp32 deployment.
  const auto x = random_embeddings(cfg, 9, /*outlier_fraction=*/0.06,
                                   /*outlier_scale=*/30.0F);
  const auto ref = model.forward_reference(x);
  const auto mixed = model.forward_mixed(x, sys);
  const auto i8 = model.forward_int8(x);
  ASSERT_EQ(i8.size(), ref.size());
  const double snr_mixed = compute_error_stats(mixed, ref).snr_db;
  const double snr_i8 = compute_error_stats(i8, ref).snr_db;
  EXPECT_GT(snr_mixed, snr_i8 + 3.0);
  // Deterministic.
  const auto i8b = model.forward_int8(x);
  for (std::size_t i = 0; i < i8.size(); ++i) ASSERT_EQ(i8[i], i8b[i]);
}

TEST(VitModel, ClassifyAgreesBetweenModes) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 7));
  const AcceleratorSystem sys;
  std::vector<std::vector<float>> ref_logits;
  std::vector<std::vector<float>> mixed_logits;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto x = random_embeddings(cfg, 100 + seed);
    ref_logits.push_back(model.classify(model.forward_reference(x)));
    mixed_logits.push_back(model.classify(model.forward_mixed(x, sys)));
  }
  // Top-1 decisions should almost always agree (no-retraining deployment).
  EXPECT_GE(top1_agreement(ref_logits, mixed_logits), 0.75);
}

}  // namespace
}  // namespace bfpsim
