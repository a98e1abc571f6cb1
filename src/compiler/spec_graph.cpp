#include "compiler/spec_graph.hpp"

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "transformer/model.hpp"

namespace bfpsim {

namespace {

/// Column slice [start, start+width) of a row-major (rows x cols) matrix.
std::vector<float> slice_matrix_cols(const std::vector<float>& m, int rows,
                                     int cols, int start, int width) {
  std::vector<float> out(static_cast<std::size_t>(rows) * width);
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < width; ++j) {
      out[static_cast<std::size_t>(r) * width + j] =
          m[static_cast<std::size_t>(r) * cols + start + j];
    }
  }
  return out;
}

/// The layer stack to build: the spec's explicit list, or the default
/// depth x [attention, mlp] residual chain.
std::vector<SpecLayer> layer_stack(const ModelSpec& spec) {
  if (!spec.layers.empty()) return spec.layers;
  std::vector<SpecLayer> layers;
  std::string prev = "embed";
  for (int i = 0; i < spec.depth; ++i) {
    SpecLayer attn;
    attn.name = "attn" + std::to_string(i);
    attn.op = "attention";
    attn.input = prev;
    layers.push_back(attn);
    SpecLayer mlp;
    mlp.name = "mlp" + std::to_string(i);
    mlp.op = "mlp";
    mlp.input = attn.name;
    layers.push_back(mlp);
    prev = mlp.name;
  }
  return layers;
}

// ---------------------------------------------------------------------------
// Encoder builder: legacy VitWeights, bit-identical layout.
// ---------------------------------------------------------------------------

Graph build_encoder_graph(const ModelSpec& spec) {
  const VitConfig cfg = vit_config_of(spec);
  const VitWeights w = random_weights(cfg, spec.seed);

  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  const int h = cfg.num_heads;
  const int hd = cfg.head_dim();
  const int m = cfg.mlp_hidden();
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  const std::string mode_qkv = spec.mode_for("qkv");
  const std::string mode_attn = spec.mode_for("attention");
  const std::string mode_proj = spec.mode_for("proj");
  const std::string mode_mlp = spec.mode_for("mlp");

  Graph g;
  const NodeId embed = g.input({t, d}, "embed");
  std::map<std::string, NodeId> named;
  named["embed"] = embed;

  auto annotate = [&](NodeId id, const std::string& mode) {
    if (!mode.empty()) g.annotate_matmul_mode(id, mode);
  };

  int attn_idx = 0;
  int mlp_idx = 0;
  for (const SpecLayer& layer : layer_stack(spec)) {
    const NodeId x = named.at(layer.input);
    const std::string& nm = layer.name;
    if (layer.op == "attention") {
      const BlockWeights& b =
          w.blocks[static_cast<std::size_t>(attn_idx++)];
      const NodeId g1 = g.constant(b.ln1_gamma, {1, d}, nm + ".ln.g");
      const NodeId b1 = g.constant(b.ln1_beta, {1, d}, nm + ".ln.b");
      const NodeId ln = g.layernorm(x, g1, b1, 1e-5F, nm + ".ln");

      // Q/K/V weights as column slices of the legacy qkv_w tensor: the
      // fusion pass's merge re-concatenates them into that exact tensor.
      std::vector<NodeId> proj_out;  // q, k, v (biased)
      static const char* kQkvNames[3] = {".q", ".k", ".v"};
      for (int p = 0; p < 3; ++p) {
        const NodeId wq = g.constant(
            slice_matrix_cols(b.qkv_w, d, 3 * d, p * d, d), {d, d},
            nm + kQkvNames[p] + ".w");
        const NodeId mm = g.matmul(ln, wq, nm + kQkvNames[p]);
        annotate(mm, mode_qkv);
        const NodeId bq = g.constant(
            slice_matrix_cols(b.qkv_b, 1, 3 * d, p * d, d), {1, d},
            nm + kQkvNames[p] + ".b");
        proj_out.push_back(g.bias_add(mm, bq, nm + kQkvNames[p] + "+b"));
      }

      NodeId attn = -1;
      for (int head = 0; head < h; ++head) {
        const std::string hn = nm + ".h" + std::to_string(head);
        const NodeId qh =
            g.slice_cols(proj_out[0], head * hd, hd, hn + ".q");
        const NodeId kh =
            g.slice_cols(proj_out[1], head * hd, hd, hn + ".k");
        const NodeId vh =
            g.slice_cols(proj_out[2], head * hd, hd, hn + ".v");
        const NodeId kt = g.transpose(kh, hn + ".kT");
        const NodeId sc = g.matmul(qh, kt, hn + ".scores");
        annotate(sc, mode_attn);
        const NodeId scaled = g.scale(sc, scale, hn + ".scaled");
        const NodeId probs = g.softmax(scaled, hn + ".softmax");
        const NodeId ctx = g.matmul(probs, vh, hn + ".ctx");
        annotate(ctx, mode_attn);
        attn = head == 0 ? ctx : g.concat_cols(attn, ctx, hn + ".cat");
      }

      const NodeId wp = g.constant(b.proj_w, {d, d}, nm + ".proj.w");
      const NodeId pm = g.matmul(attn, wp, nm + ".proj");
      annotate(pm, mode_proj);
      const NodeId pb = g.constant(b.proj_b, {1, d}, nm + ".proj.b");
      const NodeId pba = g.bias_add(pm, pb, nm + ".proj+b");
      named[nm] = g.add(pba, x, nm + ".res");
    } else {  // mlp
      const BlockWeights& b = w.blocks[static_cast<std::size_t>(mlp_idx++)];
      const NodeId g2 = g.constant(b.ln2_gamma, {1, d}, nm + ".ln.g");
      const NodeId b2 = g.constant(b.ln2_beta, {1, d}, nm + ".ln.b");
      const NodeId ln = g.layernorm(x, g2, b2, 1e-5F, nm + ".ln");
      const NodeId w1 = g.constant(b.fc1_w, {d, m}, nm + ".fc1.w");
      const NodeId mm1 = g.matmul(ln, w1, nm + ".fc1");
      annotate(mm1, mode_mlp);
      const NodeId fb1 = g.constant(b.fc1_b, {1, m}, nm + ".fc1.b");
      const NodeId ba1 = g.bias_add(mm1, fb1, nm + ".fc1+b");
      const NodeId act = g.gelu(ba1, nm + ".gelu");
      const NodeId w2 = g.constant(b.fc2_w, {m, d}, nm + ".fc2.w");
      const NodeId mm2 = g.matmul(act, w2, nm + ".fc2");
      annotate(mm2, mode_mlp);
      const NodeId fb2 = g.constant(b.fc2_b, {1, d}, nm + ".fc2.b");
      const NodeId ba2 = g.bias_add(mm2, fb2, nm + ".fc2+b");
      named[nm] = g.add(ba2, x, nm + ".res");
    }
  }
  g.set_output(named.at(layer_stack(spec).back().name));
  return g;
}

// ---------------------------------------------------------------------------
// Decoder builder: bias-free GPT/Llama stack with GQA / RoPE / SwiGLU.
// ---------------------------------------------------------------------------

/// RoPE tables over (t x hd), neox layout: freq_i = theta^(-2i/hd) for
/// i < hd/2, duplicated across both halves so rope() (x*cos +
/// rotate_half(x)*sin) applies the standard rotation.
void rope_tables(int t, int hd, std::vector<float>& cos_tab,
                 std::vector<float>& sin_tab) {
  const int half = hd / 2;
  cos_tab.resize(static_cast<std::size_t>(t) * hd);
  sin_tab.resize(static_cast<std::size_t>(t) * hd);
  for (int p = 0; p < t; ++p) {
    for (int j = 0; j < hd; ++j) {
      const int i = j % half;
      const double freq =
          std::pow(10000.0, -2.0 * static_cast<double>(i) /
                                static_cast<double>(hd));
      const double angle = static_cast<double>(p) * freq;
      cos_tab[static_cast<std::size_t>(p) * hd + j] =
          static_cast<float>(std::cos(angle));
      sin_tab[static_cast<std::size_t>(p) * hd + j] =
          static_cast<float>(std::sin(angle));
    }
  }
}

Graph build_decoder_graph(const ModelSpec& spec, int tokens) {
  const int t = tokens > 0 ? tokens : spec.context;
  BFP_REQUIRE(t >= 1, "build_spec_graph: decoder needs >= 1 token");
  BFP_REQUIRE(t <= spec.context,
              "build_spec_graph: tokens exceed the spec context");
  const int d = spec.d_model;
  const int h = spec.heads;
  const int kvh = spec.kv_heads;
  const int hd = spec.head_dim();
  const int kv_dim = spec.kv_dim();
  const int m = spec.mlp_hidden;
  const int group = h / kvh;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  const std::string mode_qkv = spec.mode_for("qkv");
  const std::string mode_attn = spec.mode_for("attention");
  const std::string mode_proj = spec.mode_for("proj");
  const std::string mode_mlp = spec.mode_for("mlp");

  Rng rng(spec.seed);
  // Fixed draw order: embedding first (the tied LM head reuses it), then
  // per layer in stack order, then the final norm / untied head.
  const std::vector<float> embed_w =
      init_weight_matrix(rng, spec.vocab, d, 0.02F);

  Graph g;
  const NodeId embed = g.input({t, d}, "embed");
  std::map<std::string, NodeId> named;
  named["embed"] = embed;

  auto annotate = [&](NodeId id, const std::string& mode) {
    if (!mode.empty()) g.annotate_matmul_mode(id, mode);
  };
  auto norm_of = [&](NodeId x, const std::string& nm) {
    if (spec.norm == SpecNorm::kRmsNorm) {
      const NodeId gamma =
          g.constant(std::vector<float>(static_cast<std::size_t>(d), 1.0F),
                     {1, d}, nm + ".g");
      return g.rmsnorm(x, gamma, 1e-5F, nm);
    }
    const NodeId gamma =
        g.constant(std::vector<float>(static_cast<std::size_t>(d), 1.0F),
                   {1, d}, nm + ".g");
    const NodeId beta =
        g.constant(std::vector<float>(static_cast<std::size_t>(d), 0.0F),
                   {1, d}, nm + ".b");
    return g.layernorm(x, gamma, beta, 1e-5F, nm);
  };

  // Shared constants: causal mask, RoPE tables.
  std::vector<float> mask(static_cast<std::size_t>(t) * t, 0.0F);
  for (int r = 0; r < t; ++r) {
    for (int c = r + 1; c < t; ++c) {
      mask[static_cast<std::size_t>(r) * t + c] = -1e9F;
    }
  }
  const NodeId mask_c = g.constant(std::move(mask), {t, t}, "causal_mask");
  NodeId cos_c = -1;
  NodeId sin_c = -1;
  if (spec.rope) {
    std::vector<float> cos_tab;
    std::vector<float> sin_tab;
    rope_tables(t, hd, cos_tab, sin_tab);
    cos_c = g.constant(std::move(cos_tab), {t, hd}, "rope.cos");
    sin_c = g.constant(std::move(sin_tab), {t, hd}, "rope.sin");
  }

  for (const SpecLayer& layer : layer_stack(spec)) {
    const NodeId x = named.at(layer.input);
    const std::string& nm = layer.name;
    if (layer.op == "attention") {
      const NodeId ln = norm_of(x, nm + ".norm");
      const NodeId wq = g.constant(init_weight_matrix(rng, d, d, 0.02F),
                                   {d, d}, nm + ".q.w");
      const NodeId wk = g.constant(
          init_weight_matrix(rng, d, kv_dim, 0.02F), {d, kv_dim},
          nm + ".k.w");
      const NodeId wv = g.constant(
          init_weight_matrix(rng, d, kv_dim, 0.02F), {d, kv_dim},
          nm + ".v.w");
      const NodeId q = g.matmul(ln, wq, nm + ".q");
      const NodeId k = g.matmul(ln, wk, nm + ".k");
      const NodeId v = g.matmul(ln, wv, nm + ".v");
      annotate(q, mode_qkv);
      annotate(k, mode_qkv);
      annotate(v, mode_qkv);

      // Rotate each kv group's keys once (heads in a group share them).
      std::vector<NodeId> k_rot(static_cast<std::size_t>(kvh));
      std::vector<NodeId> v_grp(static_cast<std::size_t>(kvh));
      for (int kg = 0; kg < kvh; ++kg) {
        const std::string gn = nm + ".g" + std::to_string(kg);
        NodeId kh = g.slice_cols(k, kg * hd, hd, gn + ".k");
        if (spec.rope) kh = g.rope(kh, cos_c, sin_c, gn + ".k.rope");
        k_rot[static_cast<std::size_t>(kg)] = g.transpose(kh, gn + ".kT");
        v_grp[static_cast<std::size_t>(kg)] =
            g.slice_cols(v, kg * hd, hd, gn + ".v");
      }

      NodeId attn = -1;
      for (int head = 0; head < h; ++head) {
        const std::string hn = nm + ".h" + std::to_string(head);
        const int kg = head / group;
        NodeId qh = g.slice_cols(q, head * hd, hd, hn + ".q");
        if (spec.rope) qh = g.rope(qh, cos_c, sin_c, hn + ".q.rope");
        const NodeId sc =
            g.matmul(qh, k_rot[static_cast<std::size_t>(kg)],
                     hn + ".scores");
        annotate(sc, mode_attn);
        const NodeId scaled = g.scale(sc, scale, hn + ".scaled");
        const NodeId masked = g.add(scaled, mask_c, hn + ".masked");
        const NodeId probs = g.softmax(masked, hn + ".softmax");
        const NodeId ctx = g.matmul(
            probs, v_grp[static_cast<std::size_t>(kg)], hn + ".ctx");
        annotate(ctx, mode_attn);
        attn = head == 0 ? ctx : g.concat_cols(attn, ctx, hn + ".cat");
      }
      const NodeId wo = g.constant(init_weight_matrix(rng, d, d, 0.02F),
                                   {d, d}, nm + ".o.w");
      const NodeId o = g.matmul(attn, wo, nm + ".o");
      annotate(o, mode_proj);
      named[nm] = g.add(x, o, nm + ".res");
    } else {  // mlp
      const NodeId ln = norm_of(x, nm + ".norm");
      NodeId inner = -1;
      if (spec.activation == SpecActivation::kSwiGlu) {
        const NodeId wg = g.constant(
            init_weight_matrix(rng, d, m, 0.02F), {d, m}, nm + ".gate.w");
        const NodeId wu = g.constant(
            init_weight_matrix(rng, d, m, 0.02F), {d, m}, nm + ".up.w");
        const NodeId gate = g.matmul(ln, wg, nm + ".gate");
        const NodeId up = g.matmul(ln, wu, nm + ".up");
        annotate(gate, mode_mlp);
        annotate(up, mode_mlp);
        const NodeId act = g.silu(gate, nm + ".silu");
        inner = g.mul(act, up, nm + ".glu");
      } else {
        const NodeId w1 = g.constant(
            init_weight_matrix(rng, d, m, 0.02F), {d, m}, nm + ".fc1.w");
        const NodeId mm1 = g.matmul(ln, w1, nm + ".fc1");
        annotate(mm1, mode_mlp);
        inner = g.gelu(mm1, nm + ".gelu");
      }
      const NodeId w2 = g.constant(init_weight_matrix(rng, m, d, 0.02F),
                                   {m, d}, nm + ".down.w");
      const NodeId down = g.matmul(inner, w2, nm + ".down");
      annotate(down, mode_mlp);
      named[nm] = g.add(x, down, nm + ".res");
    }
  }

  const NodeId xfinal = named.at(layer_stack(spec).back().name);
  const NodeId normed = norm_of(xfinal, "final.norm");
  std::vector<float> head_w;
  if (spec.tied_embeddings) {
    // LM head = embedding^T (vocab x d -> d x vocab).
    head_w.resize(static_cast<std::size_t>(d) * spec.vocab);
    for (int r = 0; r < spec.vocab; ++r) {
      for (int c = 0; c < d; ++c) {
        head_w[static_cast<std::size_t>(c) * spec.vocab + r] =
            embed_w[static_cast<std::size_t>(r) * d + c];
      }
    }
  } else {
    head_w = init_weight_matrix(rng, d, spec.vocab, 0.02F);
  }
  const NodeId lm_w =
      g.constant(std::move(head_w), {d, spec.vocab}, "lm_head.w");
  const NodeId logits = g.matmul(normed, lm_w, "logits");
  g.set_output(logits);
  return g;
}

}  // namespace

VitConfig vit_config_of(const ModelSpec& spec) {
  if (spec.family != SpecFamily::kEncoder) {
    throw ConfigError("vit_config_of: spec '" + spec.name +
                      "' is not an encoder");
  }
  if (spec.mlp_hidden % spec.d_model != 0) {
    throw ConfigError(
        "vit_config_of: mlp_hidden must be a multiple of d_model "
        "(VitConfig stores the ratio)");
  }
  VitConfig cfg;
  cfg.name = spec.name;
  cfg.image_size = spec.image_size;
  cfg.patch_size = spec.patch_size;
  cfg.embed_dim = spec.d_model;
  cfg.depth = spec.depth;
  cfg.num_heads = spec.heads;
  cfg.mlp_ratio = spec.mlp_hidden / spec.d_model;
  cfg.num_classes = spec.num_classes;
  cfg.validate();
  return cfg;
}

ModelSpec spec_of(const VitConfig& cfg) {
  cfg.validate();
  return {.name = cfg.name, .d_model = cfg.embed_dim, .depth = cfg.depth,
          .heads = cfg.num_heads, .kv_heads = cfg.num_heads,
          .mlp_hidden = cfg.mlp_hidden(), .image_size = cfg.image_size,
          .patch_size = cfg.patch_size, .num_classes = cfg.num_classes};
}

DecoderConfig decoder_config_of(const ModelSpec& spec) {
  if (spec.family != SpecFamily::kDecoder) {
    throw ConfigError("decoder_config_of: spec '" + spec.name +
                      "' is not a decoder");
  }
  if (spec.mlp_hidden % spec.d_model != 0) {
    throw ConfigError(
        "decoder_config_of: mlp_hidden must be a multiple of d_model "
        "(DecoderConfig stores the ratio)");
  }
  DecoderConfig cfg;
  cfg.name = spec.name;
  cfg.d_model = spec.d_model;
  cfg.num_layers = spec.depth;
  cfg.num_heads = spec.heads;
  cfg.ffn_mult = spec.mlp_hidden / spec.d_model;
  cfg.context_len = spec.context;
  cfg.validate();
  return cfg;
}

DecodeShape decode_shape_of(const ModelSpec& spec) {
  return {spec.d_model, spec.depth, spec.heads, spec.kv_dim(),
          spec.mlp_hidden, spec.activation == SpecActivation::kSwiGlu};
}

Graph build_spec_graph(const ModelSpec& spec, int tokens) {
  return spec.family == SpecFamily::kEncoder
             ? build_encoder_graph(spec)
             : build_decoder_graph(spec, tokens);
}

Graph build_fused_spec_graph(const ModelSpec& spec, int tokens,
                             FusionStats* stats) {
  const Graph g = build_spec_graph(spec, tokens);
  return fuse_graph(g, stats);
}

}  // namespace bfpsim
