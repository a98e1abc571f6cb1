#include "runtime/decode_serve.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "compiler/spec_graph.hpp"

namespace bfpsim {

SpecDecodeCosts spec_decode_costs(const ModelSpec& spec,
                                  const AcceleratorSystem& sys, int len,
                                  int batch) {
  if (spec.family != SpecFamily::kDecoder) {
    throw ConfigError("spec_decode_costs: '" + spec.name +
                      "' is not a decoder spec");
  }
  return decode_step_costs(decode_shape_of(spec), sys, len, batch);
}

DecodeServeReport serve_decode(const ModelSpec& spec,
                               const AcceleratorSystem& sys,
                               std::span<const ServeTurn> turns,
                               const DecodeServeConfig& cfg) {
  if (spec.family != SpecFamily::kDecoder) {
    throw ConfigError("serve_decode: '" + spec.name +
                      "' is not a decoder spec");
  }
  const DecodeShape shape = decode_shape_of(spec);
  const KvReservation kv =
      kv_reservation(shape, spec.context, cfg.page_tokens);

  PagedKvConfig kv_cfg;
  kv_cfg.page_tokens = cfg.page_tokens;
  kv_cfg.bytes_per_token = kv.bytes_per_token;
  DeviceMemory mem(cfg.arena_bytes != 0 ? cfg.arena_bytes
                                        : kv.default_arena());
  PagedKvCache cache(mem, kv_cfg);

  DecodeServeReport rep;
  rep.model = spec.name;
  rep.kv_page_bytes = cache.page_bytes();

  std::map<int, int> context;  ///< seq -> resident token count
  for (const ServeTurn& turn : turns) {
    BFP_REQUIRE(turn.prompt_tokens >= 0 && turn.gen_tokens >= 0,
                "serve_decode: negative turn sizes");
    int& len = context[turn.seq];
    TurnReport tr;
    tr.seq = turn.seq;

    // Prefill: the new prompt tokens' K/V become resident. (Prefill GEMM
    // cycles are the prompt-length prefill regime; this loop prices the
    // decode steps and the KV residency traffic.)
    len += turn.prompt_tokens;
    BFP_REQUIRE(len + turn.gen_tokens <= spec.context,
                "serve_decode: turn exceeds the spec context length");
    KvTouch t0 = cache.ensure(turn.seq, len);
    tr.kv_transfer_cycles += t0.transfer_cycles;
    tr.kv_hits += t0.pages_hit;
    tr.kv_cold += t0.pages_cold;
    tr.kv_reloads += t0.pages_reloaded;
    tr.kv_evictions += t0.pages_evicted;

    // Decode: one analytic step per generated token at the growing KV
    // length, plus that token's page residency.
    for (int g = 0; g < turn.gen_tokens; ++g) {
      ++len;
      const DecodeStepCosts step =
          decode_step_costs(shape, sys, len, cfg.batch);
      tr.decode_cycles += step.cycles_per_token;
      KvTouch t = cache.ensure(turn.seq, len);
      tr.kv_transfer_cycles += t.transfer_cycles;
      tr.kv_hits += t.pages_hit;
      tr.kv_cold += t.pages_cold;
      tr.kv_reloads += t.pages_reloaded;
      tr.kv_evictions += t.pages_evicted;
    }
    tr.context_after = len;
    tr.generated = turn.gen_tokens;
    rep.total_cycles += tr.decode_cycles + tr.kv_transfer_cycles;
    rep.total_tokens += static_cast<std::uint64_t>(turn.gen_tokens);
    rep.turns.push_back(tr);
  }
  rep.kv = cache.stats();
  const double freq = sys.config().pu.freq_hz;
  rep.tokens_per_second =
      rep.total_cycles == 0
          ? 0.0
          : static_cast<double>(rep.total_tokens) * freq /
                static_cast<double>(rep.total_cycles);
  return rep;
}

std::string DecodeServeReport::table() const {
  std::ostringstream os;
  os << "turn  seq  ctx    gen   decode.cycles  kv.dma.cycles  hit   cold  "
        "reload  evict\n";
  for (std::size_t i = 0; i < turns.size(); ++i) {
    const TurnReport& t = turns[i];
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-4zu  %-3d  %-5d  %-4d  %13llu  %13llu  %-4llu  %-4llu  "
                  "%-6llu  %-5llu\n",
                  i, t.seq, t.context_after, t.generated,
                  static_cast<unsigned long long>(t.decode_cycles),
                  static_cast<unsigned long long>(t.kv_transfer_cycles),
                  static_cast<unsigned long long>(t.kv_hits),
                  static_cast<unsigned long long>(t.kv_cold),
                  static_cast<unsigned long long>(t.kv_reloads),
                  static_cast<unsigned long long>(t.kv_evictions));
    os << line;
  }
  char tail[200];
  std::snprintf(tail, sizeof tail,
                "total: %llu tokens, %llu cycles (%.1f tok/s), kv hit rate "
                "%.3f, %llu evictions\n",
                static_cast<unsigned long long>(total_tokens),
                static_cast<unsigned long long>(total_cycles),
                tokens_per_second, kv.hit_rate(),
                static_cast<unsigned long long>(kv.evictions));
  os << tail;
  return os.str();
}

}  // namespace bfpsim
