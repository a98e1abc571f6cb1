// decode-paged: serve_decode on llm-decode with four interleaved
// conversations of two turns each, on a KV arena smaller than their
// combined KV, so the LRU pager evicts (writes back) as well as hits and
// reloads. The only workload for the runtime layer and the analytic
// decode cost; kernels and event loops are idle.
#include <cstdio>
#include <map>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "compiler/spec_registry.hpp"
#include "harness.hpp"
#include "runtime/decode_serve.hpp"

namespace perfbench {
namespace {

using namespace bfpsim;

/// Distinct seeded turn schedules, served round robin; the simulated
/// metrics pool all of them.
constexpr int kEpisodes = 4;
constexpr int kSeqs = 4;
constexpr int kRounds = 2;
constexpr int kPageTokens = 16;
/// Arena in pages: one full 1024-token context, about half of what the
/// four conversations hold at the end.
constexpr std::uint64_t kArenaPages = 64;

class DecodePaged final : public Workload {
 public:
  void setup(Spans& spans) override {
    {
      Span s(spans, "compiler.load_model_spec");
      spec_ = load_model_spec("llm-decode");
    }
    // A one-token probe reports the page size the arena is measured in.
    const ServeTurn probe{0, 0, 1};
    DecodeServeConfig cfg;
    cfg.page_tokens = kPageTokens;
    {
      Span s(spans, "runtime.serve_decode");
      page_bytes_ = serve_decode(spec_, sys_, std::span(&probe, 1), cfg)
                        .kv_page_bytes;
    }
    cfg_.page_tokens = kPageTokens;
    cfg_.arena_bytes =
        kArenaPages * (page_bytes_ + 2 * DeviceMemory::kAlignment);
  }

  void make_inputs(std::uint64_t seed) override {
    turns_.assign(kEpisodes, {});
    for (int e = 0; e < kEpisodes; ++e) {
      Rng rng(sub_seed(seed, static_cast<std::uint64_t>(e)));
      for (int round = 0; round < kRounds; ++round) {
        int order[kSeqs];
        for (int s = 0; s < kSeqs; ++s) order[s] = s;
        for (int s = kSeqs - 1; s > 0; --s) {
          std::swap(order[s], order[rng.uniform_int(0, s)]);
        }
        for (const int s : order) {
          ServeTurn t;
          t.seq = s;
          // Narrow ranges keep the pooled turn latencies comparable across
          // seeds; the interleaving order carries the seed's variety.
          t.prompt_tokens = static_cast<int>(
              round == 0 ? rng.uniform_int(112, 144) : rng.uniform_int(40, 56));
          t.gen_tokens = static_cast<int>(rng.uniform_int(120, 136));
          turns_[static_cast<std::size_t>(e)].push_back(t);
        }
      }
    }
    first_.assign(kEpisodes, std::nullopt);
    text_.assign(kEpisodes, "");
  }

  int min_ops() const override { return kEpisodes; }

  bool op(int i, Spans& spans) override {
    const auto k = static_cast<std::size_t>(i % kEpisodes);
    DecodeServeReport rep;
    {
      Span s(spans, "runtime.serve_decode");
      rep = serve_decode(spec_, sys_, turns_[k], cfg_);
    }
    std::uint64_t gen = 0;
    for (const ServeTurn& t : turns_[k]) {
      gen += static_cast<std::uint64_t>(t.gen_tokens);
    }
    bool ok = rep.total_tokens == gen && rep.turns.size() == turns_[k].size();
    std::string text = describe(rep);
    if (!first_[k]) {
      first_[k] = std::move(rep);
      text_[k] = std::move(text);
    } else {
      ok = ok && text == text_[k];
    }
    return ok;
  }

  double units(int i) const override {
    double gen = 0.0;
    for (const ServeTurn& t : turns_[static_cast<std::size_t>(i % kEpisodes)]) {
      gen += t.gen_tokens;
    }
    return gen;
  }

  std::string digest() const override {
    Digest d;
    for (const std::string& t : text_) d.text(t);
    return d.hex();
  }

  void sim_metrics(MetricMap& out) const override {
    const double freq = sys_.config().pu.freq_hz;
    std::uint64_t cycles = 0;
    std::uint64_t tokens = 0;
    std::vector<std::uint64_t> turn_cycles;
    for (const auto& r : first_) {
      if (!r) continue;
      cycles += r->total_cycles;
      tokens += r->total_tokens;
      for (const TurnReport& t : r->turns) {
        turn_cycles.push_back(t.decode_cycles + t.kv_transfer_cycles);
      }
    }
    const double sim_s = static_cast<double>(cycles) / freq;
    // A request is one turn; one device serves them back to back.
    out["sim_latency_ms"] = {
        cycles_ms(cycles, freq) / static_cast<double>(tokens), "sim_ms"};
    out["sim_p50_ms"] = {cycles_ms(nearest_rank(turn_cycles, 50), freq),
                         "sim_ms"};
    out["sim_p99_ms"] = {cycles_ms(nearest_rank(turn_cycles, 99), freq),
                         "sim_ms"};
    out["sim_goodput_rps"] = {static_cast<double>(turn_cycles.size()) / sim_s,
                              "1/sim_s"};
    out["sim_admit_frac"] = {1.0, "ratio"};
    out["sim_replica_s"] = {sim_s, "sim_s"};
    out["sim_tokens_per_s"] = {static_cast<double>(tokens) / sim_s,
                               "1/sim_s"};
  }

  int layer_metrics(Spans& spans, double /*op_ms*/, MetricMap& out) override {
    int failures = 0;
    const DecodeServeReport& rep = *first_[0];
    const KvStats& kv = rep.kv;
    out["runtime.kv.hits"].value = static_cast<double>(kv.hits);
    out["runtime.kv.cold"].value = static_cast<double>(kv.cold_allocs);
    out["runtime.kv.reloads"].value = static_cast<double>(kv.reloads);
    out["runtime.kv.evictions"].value = static_cast<double>(kv.evictions);
    out["runtime.kv.hit_rate"].value = kv.hit_rate();
    out["runtime.kv.transfer_cycles"].value =
        static_cast<double>(kv.transfer_cycles);
    out["runtime.kv.dma_share"].value =
        static_cast<double>(kv.transfer_cycles) /
        static_cast<double>(rep.total_cycles);

    // The pager and the cost model replayed on episode 0's exact call
    // sequence, each timed on its own.
    DeviceMemory mem(cfg_.arena_bytes);
    PagedKvCache cache(mem, {kPageTokens, page_bytes_ / kPageTokens});
    std::map<int, int> context;
    double pager_ms = 0.0;
    double cost_ms = 0.0;
    std::uint64_t decode_cycles = 0;
    auto touch = [&](int seq, int len) {
      const Clock::time_point t = Clock::now();
      Span s(spans, "runtime.PagedKvCache::ensure");
      (void)cache.ensure(seq, len);
      pager_ms += ms_since(t);
    };
    for (const ServeTurn& turn : turns_[0]) {
      int& len = context[turn.seq];
      len += turn.prompt_tokens;
      touch(turn.seq, len);
      for (int g = 0; g < turn.gen_tokens; ++g) {
        ++len;
        const Clock::time_point t = Clock::now();
        {
          Span s(spans, "runtime.spec_decode_costs");
          decode_cycles +=
              spec_decode_costs(spec_, sys_, len, cfg_.batch).cycles_per_token;
        }
        cost_ms += ms_since(t);
        touch(turn.seq, len);
      }
    }
    out["runtime.pager_ms"].value = pager_ms;
    out["runtime.cost_model_ms"].value = cost_ms;

    const KvStats& rk = cache.stats();
    std::uint64_t want_decode = 0;
    for (const TurnReport& t : rep.turns) want_decode += t.decode_cycles;
    if (rk.hits != kv.hits || rk.cold_allocs != kv.cold_allocs ||
        rk.reloads != kv.reloads || rk.evictions != kv.evictions ||
        rk.transfer_cycles != kv.transfer_cycles ||
        decode_cycles != want_decode) {
      std::fprintf(stderr, "decode replay diverged from serve_decode\n");
      ++failures;
    }
    return failures;
  }

  std::vector<std::string> notes() const override {
    if (!first_.empty() && first_[0]) {
      const KvStats& kv = first_[0]->kv;
      return {"llm-decode episode 0: " + std::to_string(kv.hits) + " hits, " +
              std::to_string(kv.reloads) + " reloads, " +
              std::to_string(kv.evictions) + " evictions, " +
              std::to_string(first_[0]->total_tokens) + " tokens"};
    }
    return {};
  }

 private:
  /// Every simulated field of a report, printed exactly.
  static std::string describe(const DecodeServeReport& r) {
    std::string s = r.model;
    char buf[256];
    for (const TurnReport& t : r.turns) {
      std::snprintf(buf, sizeof buf, "|%d %d %d %llu %llu %llu %llu %llu %llu",
                    t.seq, t.context_after, t.generated,
                    static_cast<unsigned long long>(t.decode_cycles),
                    static_cast<unsigned long long>(t.kv_transfer_cycles),
                    static_cast<unsigned long long>(t.kv_hits),
                    static_cast<unsigned long long>(t.kv_cold),
                    static_cast<unsigned long long>(t.kv_reloads),
                    static_cast<unsigned long long>(t.kv_evictions));
      s += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "|total %llu %llu kv %llu %llu %llu %llu %llu page %llu "
                  "tps %.17g",
                  static_cast<unsigned long long>(r.total_cycles),
                  static_cast<unsigned long long>(r.total_tokens),
                  static_cast<unsigned long long>(r.kv.hits),
                  static_cast<unsigned long long>(r.kv.cold_allocs),
                  static_cast<unsigned long long>(r.kv.reloads),
                  static_cast<unsigned long long>(r.kv.evictions),
                  static_cast<unsigned long long>(r.kv.transfer_cycles),
                  static_cast<unsigned long long>(r.kv_page_bytes),
                  r.tokens_per_second);
    return s + buf;
  }

  AcceleratorSystem sys_;
  ModelSpec spec_;
  std::uint64_t page_bytes_ = 0;
  DecodeServeConfig cfg_;
  std::vector<std::vector<ServeTurn>> turns_;
  std::vector<std::optional<DecodeServeReport>> first_;
  std::vector<std::string> text_;
};

}  // namespace

std::unique_ptr<Workload> make_decode_paged() {
  return std::make_unique<DecodePaged>();
}

}  // namespace perfbench
