// Vision-transformer architecture configuration, its analytic GEMM MAC and
// nonlinear element counts, and the nonlinear layers' per-element op costs
// (the schedule search's block prices). Table IV itself is the priced
// compiled program (compiler/partition.hpp).
#pragma once

#include <cstdint>
#include <string>

namespace bfpsim {

/// DeiT/ViT-style encoder configuration.
struct VitConfig {
  std::string name = "deit-small";
  int image_size = 224;
  int patch_size = 16;
  int embed_dim = 384;
  int depth = 12;        ///< number of transformer blocks
  int num_heads = 6;
  int mlp_ratio = 4;
  int num_classes = 1000;

  int tokens() const {
    const int p = image_size / patch_size;
    return p * p + 1;  // patches + [CLS]
  }
  int head_dim() const { return embed_dim / num_heads; }
  int mlp_hidden() const { return embed_dim * mlp_ratio; }

  void validate() const;
};

VitConfig deit_small();
VitConfig deit_tiny();
VitConfig deit_base();
/// A miniature config for fast functional tests.
VitConfig vit_test_tiny();

/// MAC counts of the linear (bfp8) workload, per full model (all blocks).
struct LinearOpCounts {
  std::uint64_t qkv = 0;
  std::uint64_t attn_qk = 0;    ///< Q K^T scores
  std::uint64_t attn_av = 0;    ///< scores * V
  std::uint64_t proj = 0;
  std::uint64_t mlp = 0;

  std::uint64_t total_macs() const {
    return qkv + attn_qk + attn_av + proj + mlp;
  }
  std::uint64_t total_ops() const { return 2 * total_macs(); }
};

LinearOpCounts count_linear_macs(const VitConfig& cfg);

/// Element counts of each non-linear (fp32) workload, per full model.
struct NonlinearElemCounts {
  std::uint64_t layernorm_elems = 0;  ///< 2 LayerNorms per block
  std::uint64_t softmax_elems = 0;    ///< heads x tokens x tokens per block
  std::uint64_t gelu_elems = 0;       ///< MLP hidden activations
  std::uint64_t residual_elems = 0;   ///< 2 residual adds per block
};

NonlinearElemCounts count_nonlinear_elems(const VitConfig& cfg);

/// Device-op cost per element of each non-linear function, from the
/// approximations' closed-form op counts (numerics/nonlinear.hpp): what one
/// element costs in fp32 mul/add (+ exponent-unit) operations on the PU,
/// and in host operations (divisions, comparisons).
struct NonlinearCostModel {
  double softmax_device_ops_per_elem = 0.0;
  double softmax_host_ops_per_elem = 0.0;
  double layernorm_device_ops_per_elem = 0.0;
  double layernorm_host_ops_per_elem = 0.0;
  double gelu_device_ops_per_elem = 0.0;
  double gelu_host_ops_per_elem = 0.0;
};

/// The cost model at the given row lengths (row length matters for the
/// per-row reductions; pass the model's realistic row sizes).
NonlinearCostModel measure_nonlinear_costs(int softmax_row, int ln_row);

}  // namespace bfpsim
