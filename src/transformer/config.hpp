// Vision-transformer architecture configuration and its analytic GEMM MAC
// counts (the independent oracle the compiled programs' MatMul ops are
// tested against). Table IV itself is the priced compiled program
// (compiler/partition.hpp).
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

}  // namespace bfpsim
