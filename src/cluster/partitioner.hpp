// Splits a transformer across cluster cards.
//
// Two strategies, both validated for divisibility up front:
//
//  * pipeline — card c owns a contiguous range of encoder blocks
//    (depth / cards each); the only traffic is the (tokens x d) activation
//    tensor crossing each stage boundary, point-to-point.
//
//  * tensor — every block is split across all cards Megatron-style by
//    heads and FFN columns (forward_sharded in transformer/model.hpp walks
//    the split; each card's slice is a TensorBlockShard). To keep the
//    sharded forward bit-identical to the single-card forward (the
//    determinism contract tests pin), every split is a *column* split of
//    the weight matrix at bfp-block boundaries, and boundaries are crossed
//    with all-gathers only — never reductions:
//
//      qkv:  card c computes the Q/K/V columns of its heads (local —
//            per-head attention needs no communication);
//      proj: all-gather attn_out, card c computes proj columns
//            [c*d/C, (c+1)*d/C), all-gather the output;
//      fc1:  input x is replicated after the residual; card c computes
//            hidden columns [c*m/C, (c+1)*m/C) plus its bias/GELU slice;
//      fc2:  all-gather the activations, card c computes output columns,
//            all-gather the output.
//
//    Column splits at multiples of the bfp block width leave every 8x8
//    quantization block and every output tile's k-reduction order exactly
//    as the un-split GEMM had them, so the gathered result is the
//    un-split result bit-for-bit. A row-split + all-reduce variant would
//    halve the gather traffic but re-associates the PSU alignment chain
//    (fp32 addition does not re-associate) — rejected here by design.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "transformer/model.hpp"

namespace bfpsim {

enum class PartitionStrategy { kPipeline, kTensor };

const char* to_string(PartitionStrategy s);

/// One pipeline stage: a contiguous block range as a standalone sub-model.
struct PipelineStage {
  int card = 0;
  int first_block = 0;
  int num_blocks = 0;
  VitWeights weights;  ///< cfg.depth == num_blocks; head params copied
};

/// One card's share of a tensor-parallel model; the executor runs
/// forward_sharded (transformer/model.hpp) over the shards' blocks.
struct TensorShard {
  int card = 0;
  int head_begin = 0;  ///< first owned attention head
  int head_end = 0;    ///< one past the last owned head
  std::vector<TensorBlockShard> blocks;  ///< one per encoder block
};

/// The full partitioning decision plus the traffic it implies.
struct PartitionPlan {
  PartitionStrategy strategy = PartitionStrategy::kPipeline;
  int cards = 1;
  VitConfig cfg;

  std::vector<PipelineStage> stages;  ///< pipeline strategy only
  std::vector<TensorShard> shards;    ///< tensor strategy only

  /// Activation tensor crossing one pipeline boundary (tokens * d * 4).
  std::uint64_t boundary_bytes = 0;
  /// Total collective payload of one forward: pipeline — one boundary
  /// tensor per stage gap; tensor — 4 all-gathers per block (attn_out,
  /// proj out, MLP activations, fc2 out).
  std::uint64_t collective_bytes_per_forward = 0;
};

/// Why `cfg` does not split `strategy`-wise across `cards` cards, or ""
/// when it does: pipeline needs depth % cards == 0; tensor needs
/// heads % cards == 0 and both d/cards and mlp_hidden/cards to be
/// multiples of the bfp block width (8) so column splits stay on
/// quantization-block boundaries. Needs no weights, so spec-level checks
/// ask it before anything is materialized.
std::string partition_infeasibility(const VitConfig& cfg,
                                    PartitionStrategy strategy, int cards);

/// Partition `w` across `cards`. Throws ShapeError, carrying
/// partition_infeasibility's reason, when the model does not divide.
PartitionPlan partition_model(const VitWeights& w, PartitionStrategy strategy,
                              int cards);

}  // namespace bfpsim
