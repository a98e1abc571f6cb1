#include "transformer/config.hpp"

#include "common/error.hpp"

namespace bfpsim {

void VitConfig::validate() const {
  BFP_REQUIRE(image_size > 0 && patch_size > 0 &&
                  image_size % patch_size == 0,
              "VitConfig: image_size must be a multiple of patch_size");
  BFP_REQUIRE(embed_dim > 0 && num_heads > 0 &&
                  embed_dim % num_heads == 0,
              "VitConfig: embed_dim must be a multiple of num_heads");
  BFP_REQUIRE(depth > 0 && mlp_ratio > 0 && num_classes > 0,
              "VitConfig: depth/mlp_ratio/num_classes must be positive");
}

VitConfig deit_small() { return VitConfig{}; }

VitConfig deit_tiny() {
  VitConfig c;
  c.name = "deit-tiny";
  c.embed_dim = 192;
  c.num_heads = 3;
  return c;
}

VitConfig deit_base() {
  VitConfig c;
  c.name = "deit-base";
  c.embed_dim = 768;
  c.num_heads = 12;
  return c;
}

VitConfig vit_test_tiny() {
  VitConfig c;
  c.name = "vit-test-tiny";
  c.image_size = 32;
  c.patch_size = 8;     // 17 tokens
  c.embed_dim = 64;
  c.depth = 2;
  c.num_heads = 2;
  c.num_classes = 10;
  return c;
}

LinearOpCounts count_linear_macs(const VitConfig& cfg) {
  cfg.validate();
  const auto t = static_cast<std::uint64_t>(cfg.tokens());
  const auto d = static_cast<std::uint64_t>(cfg.embed_dim);
  const auto h = static_cast<std::uint64_t>(cfg.num_heads);
  const auto hd = static_cast<std::uint64_t>(cfg.head_dim());
  const auto m = static_cast<std::uint64_t>(cfg.mlp_hidden());
  const auto blocks = static_cast<std::uint64_t>(cfg.depth);
  LinearOpCounts c;
  c.qkv = blocks * t * d * (3 * d);
  c.attn_qk = blocks * h * t * t * hd;
  c.attn_av = blocks * h * t * t * hd;
  c.proj = blocks * t * d * d;
  c.mlp = blocks * (t * d * m + t * m * d);
  return c;
}

}  // namespace bfpsim
