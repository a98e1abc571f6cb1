#include "compiler/schedule.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>

#include "fabric/system.hpp"

namespace bfpsim {

namespace {

constexpr int kBlockAlign = 8;  ///< bfp quantization block width

/// Analytic per-block costs on one card of the topology.
struct BlockCosts {
  std::uint64_t pipeline = 0;  ///< whole block on one stage card
  std::uint64_t tensor = 0;    ///< per-card slice + 4 all-gathers
};

BlockCosts block_costs(const VitConfig& cfg, const AcceleratorSystem& sys,
                       const ClusterTopology& topo, bool tensor_feasible) {
  const int cards = topo.num_cards();
  const auto t = static_cast<std::uint64_t>(cfg.tokens());
  const auto d = static_cast<std::uint64_t>(cfg.embed_dim);
  const auto hd = static_cast<std::uint64_t>(cfg.head_dim());
  const auto m = static_cast<std::uint64_t>(cfg.mlp_hidden());
  const int h = cfg.num_heads;

  const NonlinearCostModel nl = measure_nonlinear_costs(
      cfg.tokens(), cfg.embed_dim);
  auto gemm = [&](std::uint64_t mm, std::uint64_t kk, std::uint64_t nn) {
    return sys.gemm_latency(static_cast<int>(mm), static_cast<int>(kk),
                            static_cast<int>(nn))
        .cycles;
  };
  auto vmul = [&](double elems) {
    return sys.vector_latency(static_cast<std::uint64_t>(elems), 0).cycles;
  };
  auto vadd = [&](std::uint64_t elems) {
    return sys.vector_latency(0, elems).cycles;
  };

  BlockCosts c;
  // ---- pipeline: the full block's work, serial on its stage card ----
  c.pipeline = gemm(t, d, 3 * d) +
               static_cast<std::uint64_t>(h) * (gemm(t, hd, t) +
                                                gemm(t, t, hd)) +
               gemm(t, d, d) + gemm(t, d, m) + gemm(t, m, d);
  c.pipeline += 2 * vmul(static_cast<double>(t * d) *
                         nl.layernorm_device_ops_per_elem);  // ln1+ln2
  c.pipeline += static_cast<std::uint64_t>(h) *
                (vmul(static_cast<double>(t * t)) +  // score scaling
                 vmul(static_cast<double>(t * t) *
                      nl.softmax_device_ops_per_elem));
  c.pipeline += vadd(t * 3 * d) + vadd(t * d) + vadd(t * m) +
                vadd(t * d);                         // bias adds
  c.pipeline += vmul(static_cast<double>(t * m) *
                     nl.gelu_device_ops_per_elem);   // GELU
  c.pipeline += 2 * vadd(t * d);                     // residuals

  if (!tensor_feasible) {
    c.tensor = UINT64_MAX;
    return c;
  }

  // ---- tensor: the slowest (by symmetry: any) card's slice, plus the
  // ring collectives on the critical path ----
  const auto C = static_cast<std::uint64_t>(cards);
  const std::uint64_t dc = d / C;
  const std::uint64_t mc = m / C;
  const auto local_heads = static_cast<std::uint64_t>(h / cards);
  c.tensor = gemm(t, d, 3 * dc) +
             local_heads * (gemm(t, hd, t) + gemm(t, t, hd)) +
             gemm(t, d, dc) + gemm(t, d, mc) + gemm(t, m, dc);
  c.tensor += 2 * vmul(static_cast<double>(t * d) *
                       nl.layernorm_device_ops_per_elem);  // replicated
  c.tensor += local_heads *
              (vmul(static_cast<double>(t * t)) +
               vmul(static_cast<double>(t * t) *
                    nl.softmax_device_ops_per_elem));
  c.tensor += vadd(t * 3 * dc) + vadd(t * dc) + vadd(t * mc) +
              vadd(t * dc);
  c.tensor += vmul(static_cast<double>(t * mc) *
                   nl.gelu_device_ops_per_elem);
  c.tensor += 2 * vadd(t * d);  // replicated residuals
  const std::uint64_t act_bytes = t * d * sizeof(float);
  const std::uint64_t mlp_bytes = t * m * sizeof(float);
  c.tensor += 3 * topo.all_gather_cycles(act_bytes) +
              topo.all_gather_cycles(mlp_bytes);
  return c;
}

}  // namespace

ScheduleDecision search_schedule(const VitConfig& cfg,
                                 const ClusterTopology& topo) {
  cfg.validate();
  const int cards = topo.num_cards();
  const int depth = cfg.depth;
  BFP_REQUIRE(cards >= 1, "search_schedule: need >= 1 card");

  const bool pipeline_feasible = depth % std::max(1, cards) == 0;
  const bool tensor_feasible =
      cards == 1 ||
      (cfg.num_heads % cards == 0 &&
       (cfg.embed_dim / cards) % kBlockAlign == 0 &&
       (cfg.mlp_hidden() / cards) % kBlockAlign == 0);
  BFP_REQUIRE(pipeline_feasible || tensor_feasible,
              "search_schedule: neither strategy divides this model");

  AcceleratorSystem sys(topo.card_config());
  const BlockCosts per_block = block_costs(cfg, sys, topo, tensor_feasible);

  // Stage-boundary traffic of the all-pipeline plan, amortized per block
  // (remainder on block 0) so the DP's all-pipeline path prices out to
  // exactly the uniform plan.
  const std::uint64_t act_bytes =
      static_cast<std::uint64_t>(cfg.tokens()) *
      static_cast<std::uint64_t>(cfg.embed_dim) * sizeof(float);
  const std::uint64_t boundary_total =
      cards > 1 && pipeline_feasible
          ? static_cast<std::uint64_t>(cards - 1) *
                topo.p2p_cycles(0, 1 % cards, act_bytes)
          : 0;
  const std::uint64_t boundary_share =
      boundary_total / static_cast<std::uint64_t>(depth);
  const std::uint64_t boundary_rem =
      boundary_total % static_cast<std::uint64_t>(depth);
  // Re-replicating the activation stream when a pipeline block hands off
  // to a tensor block.
  const std::uint64_t replicate_cost = topo.all_gather_cycles(act_bytes);

  auto pipe_cost = [&](int blk) {
    if (!pipeline_feasible) return UINT64_MAX;
    return per_block.pipeline + boundary_share +
           (blk == 0 ? boundary_rem : 0);
  };
  auto tens_cost = [&](int) { return per_block.tensor; };

  // DP over the block chain, state = strategy of the previous block.
  constexpr int kPipe = 0;
  constexpr int kTens = 1;
  std::vector<std::array<std::uint64_t, 2>> dp(
      static_cast<std::size_t>(depth));
  std::vector<std::array<int, 2>> back(static_cast<std::size_t>(depth));
  auto sat_add = [](std::uint64_t a, std::uint64_t b) {
    return a == UINT64_MAX || b == UINT64_MAX ? UINT64_MAX : a + b;
  };
  dp[0][kPipe] = pipe_cost(0);
  dp[0][kTens] = tens_cost(0);
  back[0] = {-1, -1};
  for (int b = 1; b < depth; ++b) {
    const auto& prev = dp[static_cast<std::size_t>(b - 1)];
    auto& cur = dp[static_cast<std::size_t>(b)];
    auto& bk = back[static_cast<std::size_t>(b)];
    // -> pipeline: free from either state (tensor leaves the stream
    // replicated; the stage card already holds a copy).
    bk[kPipe] = prev[kPipe] <= prev[kTens] ? kPipe : kTens;
    cur[kPipe] = sat_add(std::min(prev[kPipe], prev[kTens]), pipe_cost(b));
    // -> tensor: a preceding pipeline block holds the activations on one
    // card only, so entering tensor pays the re-replication gather.
    const std::uint64_t from_pipe = sat_add(prev[kPipe], replicate_cost);
    bk[kTens] = prev[kTens] <= from_pipe ? kTens : kPipe;
    cur[kTens] =
        sat_add(std::min(prev[kTens], from_pipe), tens_cost(b));
  }

  ScheduleDecision dec;
  dec.cards = cards;
  const auto& last = dp[static_cast<std::size_t>(depth - 1)];
  int state = last[kPipe] <= last[kTens] ? kPipe : kTens;
  dec.cycles = last[static_cast<std::size_t>(state)];
  dec.blocks.resize(static_cast<std::size_t>(depth));
  for (int b = depth - 1; b >= 0; --b) {
    auto& bs = dec.blocks[static_cast<std::size_t>(b)];
    bs.block = b;
    bs.strategy = state == kPipe ? PartitionStrategy::kPipeline
                                 : PartitionStrategy::kTensor;
    bs.pipeline_cycles = pipe_cost(b);
    bs.tensor_cycles = tens_cost(b);
    if (state == kPipe) {
      ++dec.pipeline_blocks;
    } else {
      ++dec.tensor_blocks;
    }
    if (b > 0) state = back[static_cast<std::size_t>(b)][state];
  }

  std::uint64_t up = 0;
  std::uint64_t ut = 0;
  for (int b = 0; b < depth; ++b) {
    up = pipeline_feasible ? up + pipe_cost(b) : UINT64_MAX;
    ut = tensor_feasible ? ut + tens_cost(b) : UINT64_MAX;
    if (!pipeline_feasible) up = UINT64_MAX;
    if (!tensor_feasible) ut = UINT64_MAX;
  }
  dec.uniform_pipeline_cycles = up;
  dec.uniform_tensor_cycles = ut;
  return dec;
}

std::string ScheduleDecision::report() const {
  std::ostringstream os;
  os << "block  strategy  pipeline.cycles  tensor.cycles\n";
  for (const BlockSchedule& b : blocks) {
    char line[96];
    std::snprintf(line, sizeof line, "%-5d  %-8s  %15llu  %13llu\n",
                  b.block, to_string(b.strategy),
                  static_cast<unsigned long long>(b.pipeline_cycles),
                  static_cast<unsigned long long>(b.tensor_cycles));
    os << line;
  }
  os << "chosen " << cycles << " cycles/request ("
     << pipeline_blocks << " pipeline, " << tensor_blocks
     << " tensor) vs uniform pipeline " << uniform_pipeline_cycles
     << ", uniform tensor " << uniform_tensor_cycles << "\n";
  return os.str();
}

std::string ScheduleDecision::to_json() const {
  std::ostringstream os;
  os << "{\"cards\":" << cards << ",\"cycles\":" << cycles
     << ",\"uniform_pipeline_cycles\":" << uniform_pipeline_cycles
     << ",\"uniform_tensor_cycles\":" << uniform_tensor_cycles
     << ",\"pipeline_blocks\":" << pipeline_blocks
     << ",\"tensor_blocks\":" << tensor_blocks << ",\"schedule\":[";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    os << (i == 0 ? "\"" : ",\"") << to_string(blocks[i].strategy) << "\"";
  }
  os << "]}";
  return os.str();
}

}  // namespace bfpsim
