// ModelSpec -> compute graph: materializes seeded weights and builds the
// unfused op graph a spec describes. Together with fuse_graph() and
// compile({.macro_kernels = true}) this is the declarative path onto the
// accelerator:
//
//   spec --build_spec_graph--> graph --fuse_graph--> fused graph
//        --compile--> ISA program
//
// Encoder specs draw their parameters through the legacy seeded
// initializer (random_weights on the VitConfig the spec maps to), and the
// builder emits the Q/K/V projection weights as *column slices of the
// legacy qkv_w tensor* — so the fusion pass's QKV merge reconstructs that
// tensor byte-for-byte and the compiled program is bit- and cycle-
// identical to VitModel::forward_mixed on the same system.
//
// Decoder specs (GPT/Llama-style) are bias-free: causal masking via a
// -1e9 additive constant before softmax, optional GQA (kv_heads < heads),
// optional RoPE (theta 10000, duplicated-half cos/sin tables), GELU or
// SwiGLU MLP, LayerNorm or RMSNorm. Weights are drawn from Rng(spec.seed)
// with the legacy truncated-normal discipline (init_weight_matrix, std
// 0.02) in a documented fixed order: token embedding first, then each
// layer's tensors in layer-list order, then the final norm (the tied LM
// head reuses the embedding transposed).
#pragma once

#include "compiler/fuse.hpp"
#include "compiler/graph.hpp"
#include "compiler/spec.hpp"
#include "transformer/config.hpp"
#include "transformer/decoder.hpp"

namespace bfpsim {

/// Map a (degenerate) encoder spec onto the legacy VitConfig. Throws
/// ConfigError when the spec does not fit (decoder family, or mlp_hidden
/// not a multiple of d_model — VitConfig stores the ratio).
VitConfig vit_config_of(const ModelSpec& spec);

/// The encoder spec `cfg` describes, seed 42: the inverse of
/// vit_config_of (the registered deit-small spec is spec_of(deit_small())).
ModelSpec spec_of(const VitConfig& cfg);

/// Map a decoder spec onto the legacy DecoderConfig the analytic decode
/// model consumes (ffn_mult = mlp_hidden / d_model). Throws ConfigError
/// for encoder specs or when mlp_hidden % d_model != 0.
DecoderConfig decoder_config_of(const ModelSpec& spec);

/// The per-token decode stream of a decoder spec (embeddings excluded,
/// matching DecoderConfig::params_per_layer for the degenerate case).
DecodeShape decode_shape_of(const ModelSpec& spec);

/// Build the unfused graph for `spec`. `tokens` overrides the sequence
/// length for decoder specs (<= 0 means spec.context); encoder specs
/// always use their patch-grid token count.
Graph build_spec_graph(const ModelSpec& spec, int tokens = 0);

/// build_spec_graph + fuse_graph in one step.
Graph build_fused_spec_graph(const ModelSpec& spec, int tokens = 0,
                             FusionStats* stats = nullptr);

}  // namespace bfpsim
