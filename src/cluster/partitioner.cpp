#include "cluster/partitioner.hpp"

#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "numerics/bfp.hpp"

namespace bfpsim {

const char* to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kPipeline:
      return "pipeline";
    case PartitionStrategy::kTensor:
      return "tensor";
  }
  return "?";
}

namespace {

PartitionPlan partition_pipeline(const VitWeights& w, int cards) {
  const VitConfig& cfg = w.cfg;
  if (cfg.depth % cards != 0) {
    throw ShapeError("partition_model: depth " + std::to_string(cfg.depth) +
                     " not divisible by " + std::to_string(cards) +
                     " pipeline stages");
  }
  PartitionPlan plan;
  plan.strategy = PartitionStrategy::kPipeline;
  plan.cards = cards;
  plan.cfg = cfg;
  const int per_stage = cfg.depth / cards;
  for (int c = 0; c < cards; ++c) {
    PipelineStage stage;
    stage.card = c;
    stage.first_block = c * per_stage;
    stage.num_blocks = per_stage;
    stage.weights.cfg = cfg;
    stage.weights.cfg.depth = per_stage;
    stage.weights.blocks.assign(
        w.blocks.begin() + stage.first_block,
        w.blocks.begin() + stage.first_block + per_stage);
    // Head parameters ride with every stage (only the last stage's are
    // meaningful; copying keeps each stage a self-contained VitWeights).
    stage.weights.head_gamma = w.head_gamma;
    stage.weights.head_beta = w.head_beta;
    stage.weights.head_w = w.head_w;
    stage.weights.head_b = w.head_b;
    plan.stages.push_back(std::move(stage));
  }
  plan.boundary_bytes = static_cast<std::uint64_t>(cfg.tokens()) *
                        static_cast<std::uint64_t>(cfg.embed_dim) *
                        sizeof(float);
  plan.collective_bytes_per_forward =
      static_cast<std::uint64_t>(cards - 1) * plan.boundary_bytes;
#if BFPSIM_CONTRACTS
  // Shape contract: the stages tile [0, depth) exactly — contiguous,
  // disjoint, nothing dropped. Sharded forward == single-card forward
  // depends on this, bit for bit.
  int covered = 0;
  for (const PipelineStage& st : plan.stages) {
    BFPSIM_ENSURE(st.first_block == covered,
                  "partition_pipeline: stages must be contiguous");
    covered += st.num_blocks;
  }
  BFPSIM_ENSURE(covered == cfg.depth,
                "partition_pipeline: stages must cover every block");
#endif
  return plan;
}

PartitionPlan partition_tensor(const VitWeights& w, int cards) {
  const VitConfig& cfg = w.cfg;
  const int d = cfg.embed_dim;
  const int m = cfg.mlp_hidden();
  const int block_w = bfp8_format().cols;
  if (cfg.num_heads % cards != 0) {
    throw ShapeError("partition_model: " + std::to_string(cfg.num_heads) +
                     " heads not divisible by " + std::to_string(cards) +
                     " tensor shards");
  }
  const int dc = d / cards;
  const int mc = m / cards;
  if (dc % block_w != 0 || mc % block_w != 0) {
    throw ShapeError(
        "partition_model: per-card column widths (" + std::to_string(dc) +
        ", " + std::to_string(mc) + ") must be multiples of the bfp block "
        "width " + std::to_string(block_w));
  }

  PartitionPlan plan;
  plan.strategy = PartitionStrategy::kTensor;
  plan.cards = cards;
  plan.cfg = cfg;
  const int heads_per_card = cfg.num_heads / cards;
  for (int c = 0; c < cards; ++c) {
    TensorShard shard;
    shard.card = c;
    shard.head_begin = c * heads_per_card;
    shard.head_end = (c + 1) * heads_per_card;
    const int col0 = c * dc;
    for (const BlockWeights& b : w.blocks) {
      TensorBlockShard s;
      // LayerNorm runs replicated: every card holds the parameters.
      s.ln1_gamma = b.ln1_gamma;
      s.ln1_beta = b.ln1_beta;
      s.ln2_gamma = b.ln2_gamma;
      s.ln2_beta = b.ln2_beta;
      // [Q_c | K_c | V_c]: read as 3d rows of d columns (one row per
      // Q/K/V segment), qkv keeps columns [col0, col0 + dc) of each.
      s.qkv_w = slice_cols(b.qkv_w, 3 * d, d, col0, dc);
      s.qkv_b = slice_cols(b.qkv_b, 3, d, col0, dc);
      s.proj_w = slice_cols(b.proj_w, d, d, col0, dc);
      s.proj_b = slice_cols(b.proj_b, 1, d, col0, dc);
      s.fc1_w = slice_cols(b.fc1_w, d, m, c * mc, mc);
      s.fc1_b = slice_cols(b.fc1_b, 1, m, c * mc, mc);
      s.fc2_w = slice_cols(b.fc2_w, m, d, col0, dc);
      s.fc2_b = slice_cols(b.fc2_b, 1, d, col0, dc);
      shard.blocks.push_back(std::move(s));
    }
    plan.shards.push_back(std::move(shard));
  }

#if BFPSIM_CONTRACTS
  // Shape contract: the head ranges tile [0, num_heads) in card order, so
  // the all-gather reassembles columns exactly where the single-card
  // forward_mixed expects them.
  int head_at = 0;
  for (const TensorShard& sh : plan.shards) {
    BFPSIM_ENSURE(sh.head_begin == head_at && sh.head_end > sh.head_begin,
                  "partition_tensor: head ranges must be contiguous");
    head_at = sh.head_end;
  }
  BFPSIM_ENSURE(head_at == cfg.num_heads,
                "partition_tensor: head ranges must cover every head");
#endif

  const auto t = static_cast<std::uint64_t>(cfg.tokens());
  // Per block: all-gather attn_out (t x d), proj out (t x d), MLP
  // activations (t x m), fc2 out (t x d).
  plan.collective_bytes_per_forward =
      static_cast<std::uint64_t>(cfg.depth) *
      (3 * t * static_cast<std::uint64_t>(d) +
       t * static_cast<std::uint64_t>(m)) *
      sizeof(float);
  return plan;
}

}  // namespace

PartitionPlan partition_model(const VitWeights& w, PartitionStrategy strategy,
                              int cards) {
  w.cfg.validate();
  BFP_REQUIRE(cards >= 1 && cards <= 64,
              "partition_model: cards must be in [1,64]");
  BFP_REQUIRE(w.blocks.size() == static_cast<std::size_t>(w.cfg.depth),
              "partition_model: weight count must match depth");
  return strategy == PartitionStrategy::kPipeline
             ? partition_pipeline(w, cards)
             : partition_tensor(w, cards);
}

}  // namespace bfpsim
