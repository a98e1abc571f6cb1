#include "transformer/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "numerics/quantizer.hpp"
#include "numerics/slices.hpp"

namespace bfpsim {

namespace {

std::vector<float> matmul_ref(const std::vector<float>& a, int m, int k,
                              const std::vector<float>& b, int n) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int x = 0; x < k; ++x) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
               b[static_cast<std::size_t>(x) * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

std::vector<float> transpose(const std::vector<float>& a, int rows,
                             int cols) {
  std::vector<float> t(a.size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      t[static_cast<std::size_t>(c) * rows + r] =
          a[static_cast<std::size_t>(r) * cols + c];
    }
  }
  return t;
}

/// Write the row-major (rows x width) `block` into columns
/// [col0, col0 + width) of the row-major (rows x cols) matrix `a`.
void put_cols(std::vector<float>& a, int cols, int col0,
              const std::vector<float>& block, int width) {
  for (std::size_t r = 0; r * width < block.size(); ++r) {
    std::copy_n(block.begin() + static_cast<std::ptrdiff_t>(r * width), width,
                a.begin() + static_cast<std::ptrdiff_t>(r * cols) + col0);
  }
}

}  // namespace

std::vector<float> slice_cols(const std::vector<float>& a, int rows,
                              int cols, int col0, int width) {
  std::vector<float> out(static_cast<std::size_t>(rows) * width);
  for (int r = 0; r < rows; ++r) {
    std::copy_n(a.begin() + static_cast<std::ptrdiff_t>(r) * cols + col0,
                width, out.begin() + static_cast<std::ptrdiff_t>(r) * width);
  }
  return out;
}

std::vector<float> init_weight_matrix(Rng& rng, int rows, int cols,
                                      float std_dev) {
  std::vector<float> w(static_cast<std::size_t>(rows) * cols);
  for (auto& v : w) {
    // Truncated-normal-ish: resample outside 2 sigma.
    float s = rng.normal(0.0F, std_dev);
    while (std::fabs(s) > 2.0F * std_dev) s = rng.normal(0.0F, std_dev);
    v = s;
  }
  return w;
}

std::vector<WeightTensor> weight_schema(VitWeights& w) {
  w.cfg.validate();
  const int d = w.cfg.embed_dim;
  const int m = w.cfg.mlp_hidden();
  w.blocks.resize(static_cast<std::size_t>(w.cfg.depth));
  using Init = WeightTensor::Init;
  std::vector<WeightTensor> schema;
  for (std::size_t i = 0; i < w.blocks.size(); ++i) {
    BlockWeights& b = w.blocks[i];
    const std::string p = "blocks." + std::to_string(i) + ".";
    schema.push_back({p + "ln1_gamma", &b.ln1_gamma, 1, d, Init::kOnes});
    schema.push_back({p + "ln1_beta", &b.ln1_beta, 1, d, Init::kZeros});
    schema.push_back({p + "qkv_w", &b.qkv_w, d, 3 * d, Init::kTruncNormal});
    schema.push_back({p + "qkv_b", &b.qkv_b, 1, 3 * d, Init::kZeros});
    schema.push_back({p + "proj_w", &b.proj_w, d, d, Init::kTruncNormal});
    schema.push_back({p + "proj_b", &b.proj_b, 1, d, Init::kZeros});
    schema.push_back({p + "ln2_gamma", &b.ln2_gamma, 1, d, Init::kOnes});
    schema.push_back({p + "ln2_beta", &b.ln2_beta, 1, d, Init::kZeros});
    schema.push_back({p + "fc1_w", &b.fc1_w, d, m, Init::kTruncNormal});
    schema.push_back({p + "fc1_b", &b.fc1_b, 1, m, Init::kZeros});
    schema.push_back({p + "fc2_w", &b.fc2_w, m, d, Init::kTruncNormal});
    schema.push_back({p + "fc2_b", &b.fc2_b, 1, d, Init::kZeros});
  }
  schema.push_back({"head_gamma", &w.head_gamma, 1, d, Init::kOnes});
  schema.push_back({"head_beta", &w.head_beta, 1, d, Init::kZeros});
  schema.push_back(
      {"head_w", &w.head_w, d, w.cfg.num_classes, Init::kTruncNormal});
  schema.push_back(
      {"head_b", &w.head_b, 1, w.cfg.num_classes, Init::kZeros});
  return schema;
}

VitWeights random_weights(const VitConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  VitWeights w;
  w.cfg = cfg;
  for (const WeightTensor& t : weight_schema(w)) {
    switch (t.init) {
      case WeightTensor::Init::kZeros:
        t.data->assign(t.size(), 0.0F);
        break;
      case WeightTensor::Init::kOnes:
        t.data->assign(t.size(), 1.0F);
        break;
      case WeightTensor::Init::kTruncNormal:
        *t.data = init_weight_matrix(rng, t.rows, t.cols, 0.02F);
        break;
    }
  }
  return w;
}

std::vector<float> random_embeddings(const VitConfig& cfg,
                                     std::uint64_t seed,
                                     double outlier_fraction,
                                     float outlier_scale) {
  cfg.validate();
  Rng rng(seed);
  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  // Pick outlier channels once (channel-structured, like real transformer
  // activations), then scale those columns.
  std::vector<bool> outlier(static_cast<std::size_t>(d), false);
  for (int c = 0; c < d; ++c) {
    outlier[static_cast<std::size_t>(c)] = rng.bernoulli(outlier_fraction);
  }
  std::vector<float> x(static_cast<std::size_t>(t) * d);
  for (int r = 0; r < t; ++r) {
    for (int c = 0; c < d; ++c) {
      float v = rng.normal(0.0F, 1.0F);
      if (outlier[static_cast<std::size_t>(c)]) v *= outlier_scale;
      x[static_cast<std::size_t>(r) * d + c] = v;
    }
  }
  return x;
}

VitModel::VitModel(VitWeights weights) : w_(std::move(weights)) {
  w_.cfg.validate();
  BFP_REQUIRE(w_.blocks.size() == static_cast<std::size_t>(w_.cfg.depth),
              "VitModel: weight count must match depth");
}

std::vector<float> VitModel::forward_reference(std::vector<float> x) const {
  const int t = w_.cfg.tokens();
  const int d = w_.cfg.embed_dim;
  const int h = w_.cfg.num_heads;
  const int hd = w_.cfg.head_dim();
  const int m = w_.cfg.mlp_hidden();
  BFP_REQUIRE(x.size() == static_cast<std::size_t>(t) * d,
              "forward_reference: input must be tokens x embed_dim");
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));

  for (const BlockWeights& b : w_.blocks) {
    // ---- attention ----
    const auto ln1 = layernorm_reference(x, t, d, b.ln1_gamma, b.ln1_beta);
    auto qkv = matmul_ref(ln1, t, d, b.qkv_w, 3 * d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < 3 * d; ++c) {
        qkv[static_cast<std::size_t>(r) * 3 * d + c] +=
            b.qkv_b[static_cast<std::size_t>(c)];
      }
    }
    std::vector<float> attn_out(static_cast<std::size_t>(t) * d);
    for (int head = 0; head < h; ++head) {
      const auto q = slice_cols(qkv, t, 3 * d, head * hd, hd);
      const auto kk = slice_cols(qkv, t, 3 * d, d + head * hd, hd);
      const auto v = slice_cols(qkv, t, 3 * d, 2 * d + head * hd, hd);
      auto scores = matmul_ref(q, t, hd, transpose(kk, t, hd), t);
      for (auto& s : scores) s *= scale;
      const auto probs = softmax_reference(scores, t, t);
      const auto ctx = matmul_ref(probs, t, t, v, hd);
      put_cols(attn_out, d, head * hd, ctx, hd);
    }
    auto proj = matmul_ref(attn_out, t, d, b.proj_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += proj[i] + b.proj_b[static_cast<std::size_t>(c)];
      }
    }
    // ---- MLP ----
    const auto ln2 = layernorm_reference(x, t, d, b.ln2_gamma, b.ln2_beta);
    auto hdn = matmul_ref(ln2, t, d, b.fc1_w, m);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < m; ++c) {
        hdn[static_cast<std::size_t>(r) * m + c] +=
            b.fc1_b[static_cast<std::size_t>(c)];
      }
    }
    const auto act = gelu_reference(hdn);
    auto out = matmul_ref(act, t, m, b.fc2_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += out[i] + b.fc2_b[static_cast<std::size_t>(c)];
      }
    }
  }
  return x;
}

std::vector<BfpBlockWeights> quantize_block_weights(
    std::span<const TensorBlockShard> blocks, const VitConfig& cfg,
    const PuConfig& pu) {
  const BfpFormat fmt = pu.bfp_format();
  auto quantize = [&](const std::vector<float>& w, int k) {
    return quantize_matrix(w, k, static_cast<int>(w.size()) / k, fmt,
                           pu.quant_round);
  };
  const int d = cfg.embed_dim;
  std::vector<BfpBlockWeights> out;
  out.reserve(blocks.size());
  for (const TensorBlockShard& b : blocks) {
    out.push_back({quantize(b.qkv_w, d), quantize(b.proj_w, d),
                   quantize(b.fc1_w, d), quantize(b.fc2_w, cfg.mlp_hidden())});
  }
  return out;
}

std::vector<float> forward_sharded(
    std::vector<float> x, const VitConfig& cfg,
    std::span<const std::span<const TensorBlockShard>> shards,
    std::span<const std::span<const BfpBlockWeights>> resident,
    const AcceleratorSystem& system, const PrecisionPolicy& policy,
    std::span<ForwardStats> card_stats,
    std::vector<std::uint64_t>* gather_bytes) {
  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  const int hd = cfg.head_dim();
  const int m = cfg.mlp_hidden();
  const int cards = static_cast<int>(shards.size());
  BFP_REQUIRE(x.size() == static_cast<std::size_t>(t) * d,
              "forward_sharded: input must be tokens x embed_dim");
  BFP_REQUIRE(cards >= 1 && card_stats.size() == shards.size() &&
                  cfg.num_heads % cards == 0,
              "forward_sharded: need one stats slot per shard and whole "
              "heads per card");
  for (const auto& shard : shards) {
    BFP_REQUIRE(shard.size() == static_cast<std::size_t>(cfg.depth),
                "forward_sharded: every shard needs one slice per block");
  }
  const bool bfp8_system = system.config().pu.mode == "bfp8";
  if (bfp8_system) {
    BFP_REQUIRE(resident.size() == shards.size(),
                "forward_sharded: a bfp8 system needs every shard's "
                "quantized weights");
    for (const auto& r : resident) {
      BFP_REQUIRE(r.size() == static_cast<std::size_t>(cfg.depth),
                  "forward_sharded: every shard needs one quantized slice "
                  "per block");
    }
  }
  const int dc = d / cards;
  const int mc = m / cards;
  const int local_heads = cfg.num_heads / cards;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  auto stats_of = [&](int c) -> ForwardStats& {
    return card_stats[static_cast<std::size_t>(c)];
  };
  // Vector-mode work is charged at the op mix's modelled latency.
  auto charge_ops = [&](int c, const OpCounter& ops) {
    stats_of(c).nonlinear_ops += ops;
    stats_of(c).vector_cycles +=
        system.vector_latency(ops.fp_mul, ops.fp_add).cycles;
  };
  // `b_resident` is the weight's quantized operand on a bfp8 system and
  // null for an activation B, which the system quantizes per call.
  auto gemm_on = [&](int c, const std::vector<float>& a, int rows, int k,
                     const std::vector<float>& b, const BfpMatrix* b_resident,
                     int n, bool bfp8) {
    if (!bfp8) {
      // Policy keeps this layer group in fp32: exact matmul, no bfp stats.
      return matmul_ref(a, rows, k, b, n);
    }
    GemmRun run = b_resident != nullptr
                      ? system.gemm(a, rows, k, *b_resident, n)
                      : system.gemm(a, rows, k, b, n);
    stats_of(c).bfp_macs += run.macs;
    stats_of(c).linear_cycles += run.compute_cycles;
    return std::move(run.c);
  };
  // Card c's quantized copy of one weight of block `blk` on a bfp8 system.
  auto resident_of = [&](int c, std::size_t blk,
                         BfpMatrix BfpBlockWeights::*w) -> const BfpMatrix* {
    return bfp8_system ? &(resident[static_cast<std::size_t>(c)][blk].*w)
                       : nullptr;
  };
  // Bias and residual adds go through the fp32 aligned-add datapath.
  auto add_bias = [&](int c, std::vector<float>& v,
                      const std::vector<float>& bias) {
    for (std::size_t r = 0; r < v.size(); r += bias.size()) {
      const std::span<float> row(v.data() + r, bias.size());
      fp32_add_aligned(row, bias, row);
    }
    charge_ops(c, OpCounter{.fp_add = v.size()});
  };
  auto add_residual = [&](const std::vector<float>& y) {
    fp32_add_aligned(x, y, x);
    for (int c = 0; c < cards; ++c) {
      charge_ops(c, OpCounter{.fp_add = x.size()});
    }
  };
  // LayerNorm runs replicated: every card normalizes its own copy of x.
  auto layernorm = [&](const std::vector<float>& gamma,
                       const std::vector<float>& beta) {
    OpCounter ops;
    auto y = approx_layernorm(x, t, d, gamma, beta, &ops);
    for (int c = 0; c < cards; ++c) charge_ops(c, ops);
    return y;
  };
  // All-gather card-order column shards (rows x width each) into one
  // row-major rows x (width * cards) matrix.
  auto gather = [&](std::vector<std::vector<float>>& parts, int width) {
    if (gather_bytes != nullptr) {
      gather_bytes->push_back(static_cast<std::uint64_t>(t) * width *
                              static_cast<std::uint64_t>(cards) *
                              sizeof(float));
    }
    if (cards == 1) return std::move(parts.front());
    std::vector<float> out(static_cast<std::size_t>(t) * width * cards);
    for (int c = 0; c < cards; ++c) {
      put_cols(out, width * cards, c * width,
               parts[static_cast<std::size_t>(c)], width);
    }
    return out;
  };
  std::vector<std::vector<float>> parts(static_cast<std::size_t>(cards));
  auto slice = [&](int c, std::size_t blk) -> const TensorBlockShard& {
    return shards[static_cast<std::size_t>(c)][blk];
  };

  for (std::size_t blk = 0; blk < static_cast<std::size_t>(cfg.depth);
       ++blk) {
    // ---- attention (LN -> QKV -> per-head SDPA -> proj -> residual) ----
    const auto ln1 = layernorm(slice(0, blk).ln1_gamma,
                               slice(0, blk).ln1_beta);
    for (int c = 0; c < cards; ++c) {
      const TensorBlockShard& s = slice(c, blk);
      auto qkv = gemm_on(c, ln1, t, d, s.qkv_w,
                         resident_of(c, blk, &BfpBlockWeights::qkv_w), 3 * dc,
                         policy.qkv);
      add_bias(c, qkv, s.qkv_b);
      // Per-head attention stays card-local: the card owns every Q/K/V
      // column its heads need.
      auto& attn = parts[static_cast<std::size_t>(c)];
      attn.assign(static_cast<std::size_t>(t) * dc, 0.0F);
      for (int head = 0; head < local_heads; ++head) {
        const auto q = slice_cols(qkv, t, 3 * dc, head * hd, hd);
        const auto kk = slice_cols(qkv, t, 3 * dc, dc + head * hd, hd);
        const auto v = slice_cols(qkv, t, 3 * dc, 2 * dc + head * hd, hd);
        auto scores = gemm_on(c, q, t, hd, transpose(kk, t, hd), nullptr, t,
                              policy.attention);
        // 1/sqrt(head_dim) scaling on the fp32 multiply path.
        for (auto& sc : scores) sc = fp32_mul_sliced(sc, scale);
        charge_ops(c, OpCounter{.fp_mul = scores.size()});
        OpCounter sm_ops;
        const auto probs = approx_softmax(scores, t, t, &sm_ops);
        charge_ops(c, sm_ops);
        const auto ctx =
            gemm_on(c, probs, t, t, v, nullptr, hd, policy.attention);
        put_cols(attn, dc, head * hd, ctx, hd);
      }
    }
    const auto attn_out = gather(parts, dc);
    for (int c = 0; c < cards; ++c) {
      const TensorBlockShard& s = slice(c, blk);
      auto& proj = parts[static_cast<std::size_t>(c)];
      proj = gemm_on(c, attn_out, t, d, s.proj_w,
                     resident_of(c, blk, &BfpBlockWeights::proj_w), dc,
                     policy.proj);
      add_bias(c, proj, s.proj_b);
    }
    add_residual(gather(parts, dc));

    // ---- MLP (LN -> fc1 -> GELU -> fc2 -> residual) ----
    const auto ln2 = layernorm(slice(0, blk).ln2_gamma,
                               slice(0, blk).ln2_beta);
    for (int c = 0; c < cards; ++c) {
      const TensorBlockShard& s = slice(c, blk);
      auto hdn = gemm_on(c, ln2, t, d, s.fc1_w,
                         resident_of(c, blk, &BfpBlockWeights::fc1_w), mc,
                         policy.mlp);
      add_bias(c, hdn, s.fc1_b);
      OpCounter gelu_ops;
      parts[static_cast<std::size_t>(c)] =
          approx_gelu(std::span<const float>(hdn), &gelu_ops);
      charge_ops(c, gelu_ops);
    }
    const auto act = gather(parts, mc);
    for (int c = 0; c < cards; ++c) {
      const TensorBlockShard& s = slice(c, blk);
      auto& out = parts[static_cast<std::size_t>(c)];
      out = gemm_on(c, act, t, m, s.fc2_w,
                    resident_of(c, blk, &BfpBlockWeights::fc2_w), dc,
                    policy.mlp);
      add_bias(c, out, s.fc2_b);
    }
    add_residual(gather(parts, dc));
  }
  return x;
}

std::vector<float> VitModel::forward_mixed(
    std::vector<float> x, const AcceleratorSystem& system,
    ForwardStats* stats, const PrecisionPolicy& policy) const {
  ForwardStats local;
  const std::span<const TensorBlockShard> shard(w_.blocks);
  const std::span<const BfpBlockWeights> resident =
      system.config().pu.mode == "bfp8" ? resident_weights(system.config().pu)
                                        : std::span<const BfpBlockWeights>();
  return forward_sharded(std::move(x), w_.cfg, std::span(&shard, 1),
                         std::span(&resident, 1), system, policy,
                         std::span(stats != nullptr ? stats : &local, 1));
}

std::span<const BfpBlockWeights> VitModel::resident_weights(
    const PuConfig& pu) const {
  const BfpFormat fmt = pu.bfp_format();
  const std::lock_guard lock(resident_->mu);
  for (const Resident::Slot& slot : resident_->slots) {
    if (slot.fmt == fmt && slot.round == pu.quant_round) return slot.blocks;
  }
  return resident_->slots
      .emplace_back(fmt, pu.quant_round,
                    quantize_block_weights(w_.blocks, w_.cfg, pu))
      .blocks;
}

std::vector<float> VitModel::forward_int8(std::vector<float> x) const {
  const int t = w_.cfg.tokens();
  const int d = w_.cfg.embed_dim;
  const int h = w_.cfg.num_heads;
  const int hd = w_.cfg.head_dim();
  const int m = w_.cfg.mlp_hidden();
  BFP_REQUIRE(x.size() == static_cast<std::size_t>(t) * d,
              "forward_int8: input must be tokens x embed_dim");
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));

  auto mm_int8 = [](const std::vector<float>& a, int mm, int kk,
                    const std::vector<float>& b, int nn) {
    return int8_gemm_reference(quantize_int8_per_tensor(a),
                               quantize_int8_per_tensor(b), mm, kk, nn);
  };
  // A fixed-point datapath stores inter-layer activations (the residual
  // stream) in int8 as well; the proposed design keeps them on the fp32
  // vector path instead — this is where per-tensor int8 loses the small-
  // channel signal once outliers stretch its single scale.
  auto requantize = [](std::vector<float>& v) {
    v = quantize_int8_per_tensor(v).dequantize();
  };
  requantize(x);

  for (const BlockWeights& b : w_.blocks) {
    const auto ln1 = layernorm_reference(x, t, d, b.ln1_gamma, b.ln1_beta);
    auto qkv = mm_int8(ln1, t, d, b.qkv_w, 3 * d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < 3 * d; ++c) {
        qkv[static_cast<std::size_t>(r) * 3 * d + c] +=
            b.qkv_b[static_cast<std::size_t>(c)];
      }
    }
    std::vector<float> attn_out(static_cast<std::size_t>(t) * d);
    for (int head = 0; head < h; ++head) {
      const auto q = slice_cols(qkv, t, 3 * d, head * hd, hd);
      const auto kk = slice_cols(qkv, t, 3 * d, d + head * hd, hd);
      const auto v = slice_cols(qkv, t, 3 * d, 2 * d + head * hd, hd);
      auto scores = mm_int8(q, t, hd, transpose(kk, t, hd), t);
      for (auto& s : scores) s *= scale;
      const auto probs = softmax_reference(scores, t, t);
      const auto ctx = mm_int8(probs, t, t, v, hd);
      put_cols(attn_out, d, head * hd, ctx, hd);
    }
    auto proj = mm_int8(attn_out, t, d, b.proj_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += proj[i] + b.proj_b[static_cast<std::size_t>(c)];
      }
    }
    requantize(x);
    const auto ln2 = layernorm_reference(x, t, d, b.ln2_gamma, b.ln2_beta);
    auto hdn = mm_int8(ln2, t, d, b.fc1_w, m);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < m; ++c) {
        hdn[static_cast<std::size_t>(r) * m + c] +=
            b.fc1_b[static_cast<std::size_t>(c)];
      }
    }
    const auto act = gelu_reference(hdn);
    auto out = mm_int8(act, t, m, b.fc2_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += out[i] + b.fc2_b[static_cast<std::size_t>(c)];
      }
    }
    requantize(x);
  }
  return x;
}

std::vector<float> VitModel::classify(const std::vector<float>& features) const {
  const int t = w_.cfg.tokens();
  const int d = w_.cfg.embed_dim;
  BFP_REQUIRE(features.size() == static_cast<std::size_t>(t) * d,
              "classify: features must be tokens x embed_dim");
  const auto ln =
      layernorm_reference(features, t, d, w_.head_gamma, w_.head_beta);
  // [CLS] token is row 0.
  const std::vector<float> cls(ln.begin(), ln.begin() + d);
  auto logits = matmul_ref(cls, 1, d, w_.head_w, w_.cfg.num_classes);
  for (int c = 0; c < w_.cfg.num_classes; ++c) {
    logits[static_cast<std::size_t>(c)] += w_.head_b[static_cast<std::size_t>(c)];
  }
  return logits;
}

double top1_agreement(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b) {
  BFP_REQUIRE(a.size() == b.size() && !a.empty(),
              "top1_agreement: batch sizes must match and be non-empty");
  int agree = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ia = std::distance(
        a[i].begin(), std::max_element(a[i].begin(), a[i].end()));
    const auto ib = std::distance(
        b[i].begin(), std::max_element(b[i].begin(), b[i].end()));
    if (ia == ib) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

}  // namespace bfpsim
