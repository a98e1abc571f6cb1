// A functional DeiT/ViT encoder with seeded synthetic weights, runnable in
// two numerics modes:
//
//  * reference — IEEE fp32/double math (the accuracy golden model), and
//  * mixed     — the paper's deployment: every matrix multiply (QKV,
//                attention scores, attention-value, projection, MLP) in
//                bfp8 on the PU, every non-linear layer (LayerNorm,
//                SoftMax, GELU) plus residual/bias adds on the fp32 vector
//                path, divisions on the host (Section III-D).
//
// The mixed-precision encoder block is written once, in forward_sharded:
// a walk over a column-sharded model that VitModel::forward_mixed runs
// with one shard (the model's own blocks) and the tensor-parallel cluster
// executor runs with one shard per card. Same walk, same bits, same
// cycles.
//
// No pretrained checkpoints are involved (see DESIGN.md substitutions):
// Table IV prices the compiled program, whose cycles never depend on the
// weights, and the accuracy experiments compare the two modes of the
// *same* synthetic network, as "no-retraining deployment" claims require.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fabric/system.hpp"
#include "numerics/nonlinear.hpp"
#include "transformer/config.hpp"

namespace bfpsim {

/// Weights of one encoder block (row-major [in x out] projection matrices).
struct BlockWeights {
  std::vector<float> ln1_gamma, ln1_beta;
  std::vector<float> qkv_w, qkv_b;      // d x 3d, 3d
  std::vector<float> proj_w, proj_b;    // d x d, d
  std::vector<float> ln2_gamma, ln2_beta;
  std::vector<float> fc1_w, fc1_b;      // d x m, m
  std::vector<float> fc2_w, fc2_b;      // m x d, d
};

struct VitWeights {
  VitConfig cfg;
  std::vector<BlockWeights> blocks;
  std::vector<float> head_gamma, head_beta;  // final LayerNorm
  std::vector<float> head_w, head_b;         // d x classes
};

/// One tensor of the VitWeights schema: a name, the backing storage, its
/// logical shape, and how a seeded initializer fills it. The schema walk
/// is the single source of truth for tensor order/shape shared by the
/// seeded initializer (random_weights), the checkpoint codec
/// (save_weights/load_weights), and the graph-compiler front end — they
/// must never enumerate the fields independently again.
struct WeightTensor {
  enum class Init { kZeros, kOnes, kTruncNormal };

  std::string name;
  std::vector<float>* data = nullptr;
  int rows = 0;  ///< 1 for bias/affine vectors
  int cols = 0;
  Init init = Init::kZeros;

  std::size_t size() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
};

/// Enumerate the weight tensors of `w` in canonical (checkpoint) order:
/// per block ln1 γ/β, qkv W/b, proj W/b, ln2 γ/β, fc1 W/b, fc2 W/b; then
/// the head γ/β/W/b. `w.cfg` must be set; blocks are resized to depth.
std::vector<WeightTensor> weight_schema(VitWeights& w);

/// ViT-style initialization (truncated-normal-ish, std 0.02) with a fixed
/// seed for reproducibility. Implemented as a walk of weight_schema() so
/// initialization, checkpointing, and compilation agree on the layout.
VitWeights random_weights(const VitConfig& cfg, std::uint64_t seed);

/// Fill one matrix with the schema's truncated-normal draw (resample
/// outside 2 sigma, std 0.02 for projections). Exposed so decoder-spec
/// weight materialization shares the exact sampling discipline.
std::vector<float> init_weight_matrix(Rng& rng, int rows, int cols,
                                      float std_dev);

/// Columns [col0, col0 + width) of a row-major rows x cols matrix: the
/// per-head Q/K/V split and the tensor-parallel weight slices.
std::vector<float> slice_cols(const std::vector<float>& a, int rows,
                              int cols, int col0, int width);

/// Synthetic input embeddings (tokens x d) with a fixed seed; a fraction of
/// channels carries transformer-like outliers to make the quantization
/// comparison realistic.
std::vector<float> random_embeddings(const VitConfig& cfg,
                                     std::uint64_t seed,
                                     double outlier_fraction = 0.02,
                                     float outlier_scale = 8.0F);

/// Which linear-layer groups run in bfp8 (false = kept in fp32 on the
/// vector path) — the per-layer sensitivity knob of the mixed-precision
/// quantization literature the paper builds on (Section IV-A).
struct PrecisionPolicy {
  bool qkv = true;
  bool attention = true;  ///< QK^T and scores*V
  bool proj = true;
  bool mlp = true;

  static PrecisionPolicy all_bfp8() { return {}; }
  static PrecisionPolicy all_fp32() { return {false, false, false, false}; }
};

/// What the mixed-precision forward consumed.
struct ForwardStats {
  std::uint64_t bfp_macs = 0;
  std::uint64_t linear_cycles = 0;   ///< modelled system latency, bfp GEMMs
  std::uint64_t vector_cycles = 0;   ///< modelled system latency, fp32 ops
  OpCounter nonlinear_ops;

  std::uint64_t total_cycles() const { return linear_cycles + vector_cycles; }
  bool operator==(const ForwardStats&) const = default;
};

/// One card's column slice of one encoder block under tensor parallelism
/// (cluster/partitioner.hpp): the BlockWeights layout cut to the card's
/// output columns — qkv as [Q_c | K_c | V_c] (3·d/C), proj and fc2 d/C,
/// fc1 m/C, each with its bias slice — and the LayerNorm parameters
/// replicated. A model's own blocks are its one-card shard.
using TensorBlockShard = BlockWeights;

/// One block's (or shard's) four weight matrices quantized as bfp8 B
/// operands — quantize_matrix(w, k, n, pu.bfp_format(), pu.quant_round) —
/// the operands forward_sharded's weight GEMMs read on a bfp8 system.
struct BfpBlockWeights {
  BfpMatrix qkv_w, proj_w, fc1_w, fc2_w;
};

/// Quantize every block of `blocks` for `pu`. Each matrix's k is
/// cfg.embed_dim (qkv, proj, fc1) or cfg.mlp_hidden() (fc2) and its n
/// follows from its size, so column shards quantize like whole blocks.
std::vector<BfpBlockWeights> quantize_block_weights(
    std::span<const TensorBlockShard> blocks, const VitConfig& cfg,
    const PuConfig& pu);

/// The mixed-precision encoder walk over a column-sharded model: `shards`
/// holds each card's slice of every block, in card order, and card c owns
/// heads [c·H/C, (c+1)·H/C). Per block:
///   LayerNorm (replicated) -> QKV columns + bias (per card) -> per-head
///   attention (per card) -> all-gather attn_out -> proj columns + bias
///   -> all-gather -> residual (replicated) -> LayerNorm -> fc1 columns +
///   bias + GELU -> all-gather -> fc2 columns + bias -> all-gather ->
///   residual.
/// Column splits on bfp-block boundaries leave every quantization block
/// and k-reduction as the un-split GEMM had them, so the result is the
/// same bits for any card count.
///
/// On a bfp8 system every weight GEMM reads its quantized operand from
/// `resident`: each shard's blocks through quantize_block_weights for
/// system.config().pu, in the layout of `shards`. Only the
/// activation x activation GEMMs (scores, context) quantize B per call.
/// Other systems ignore `resident` (it may be empty).
///
/// `card_stats[c]` accumulates card c's work (replicated ops are charged
/// to every card); `gather_bytes`, when non-null, receives the size of
/// each all-gather in order. A one-shard gather moves the tensor. `policy`
/// keeps linear-layer groups in fp32 as in VitModel::forward_mixed.
std::vector<float> forward_sharded(
    std::vector<float> x, const VitConfig& cfg,
    std::span<const std::span<const TensorBlockShard>> shards,
    std::span<const std::span<const BfpBlockWeights>> resident,
    const AcceleratorSystem& system, const PrecisionPolicy& policy,
    std::span<ForwardStats> card_stats,
    std::vector<std::uint64_t>* gather_bytes = nullptr);

class VitModel {
 public:
  explicit VitModel(VitWeights weights);

  const VitConfig& config() const { return w_.cfg; }

  /// The full fp32 parameter set (read-only) — what a re-partitioner
  /// (e.g. the cluster subsystem) slices from.
  const VitWeights& weights() const { return w_; }

  /// IEEE forward through all blocks: x is (tokens x d) row-major; returns
  /// the final block output (tokens x d).
  std::vector<float> forward_reference(std::vector<float> x) const;

  /// Mixed-precision forward on the accelerator system: forward_sharded
  /// with the model's blocks as the one shard. Optionally accumulates
  /// statistics. `policy` selects which linear-layer groups quantize to
  /// bfp8 (default: all, the paper's deployment). On a bfp8 system the
  /// weights are quantized once per model and PU format, by the first
  /// forward that needs them; safe to call concurrently.
  std::vector<float> forward_mixed(
      std::vector<float> x, const AcceleratorSystem& system,
      ForwardStats* stats = nullptr,
      const PrecisionPolicy& policy = PrecisionPolicy::all_bfp8()) const;

  /// The blocks' weights quantized for `pu` (quantize_block_weights): what
  /// forward_mixed binds on a bfp8 system. Built by the first call under
  /// each (bfp format, rounding) and kept for the model's lifetime.
  std::span<const BfpBlockWeights> resident_weights(const PuConfig& pu) const;

  /// Conventional-baseline forward: every matrix multiply through
  /// per-tensor symmetric int8 (the fixed-point deployment the paper
  /// argues against), with the non-linear layers kept in exact fp32 —
  /// deliberately generous to int8 so any damage is attributable to the
  /// linear-layer quantization alone.
  std::vector<float> forward_int8(std::vector<float> x) const;

  /// Final LayerNorm + classifier head on the [CLS] token (reference
  /// numerics; the head is shared by both modes in the experiments).
  std::vector<float> classify(const std::vector<float>& features) const;

 private:
  /// One set of quantized weights per (format, rounding) a forward has
  /// used. Heap-held so the model stays movable; a deque never moves its
  /// slots, so a set stays valid after the lock is released.
  struct Resident {
    struct Slot {
      BfpFormat fmt;
      RoundMode round;
      std::vector<BfpBlockWeights> blocks;
    };
    std::mutex mu;
    std::deque<Slot> slots;
  };

  VitWeights w_;
  std::shared_ptr<Resident> resident_ = std::make_shared<Resident>();
};

/// Top-1 agreement between two logit sets over a batch of runs (utility
/// for the accuracy experiments).
double top1_agreement(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b);

}  // namespace bfpsim
