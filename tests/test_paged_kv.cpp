// Paged KV-cache residency: deterministic LRU paging over the device
// memory model, and the multi-turn decode-serving loop built on it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compiler/spec_registry.hpp"
#include "runtime/decode_serve.hpp"
#include "runtime/paged_kv.hpp"

namespace bfpsim {
namespace {

PagedKvConfig small_pages() {
  PagedKvConfig cfg;
  cfg.page_tokens = 4;
  cfg.bytes_per_token = 256;
  return cfg;
}

TEST(PagedKv, ColdAllocThenHit) {
  DeviceMemory mem(1 << 20);
  PagedKvCache cache(mem, small_pages());

  const KvTouch t0 = cache.ensure(/*seq=*/0, /*token_count=*/10);
  EXPECT_EQ(t0.pages_cold, 3U);  // ceil(10/4)
  EXPECT_EQ(t0.pages_hit, 0U);
  EXPECT_GT(t0.transfer_cycles, 0U);
  EXPECT_EQ(cache.resident_pages(), 3U);

  const KvTouch t1 = cache.ensure(0, 10);
  EXPECT_EQ(t1.pages_hit, 3U);
  EXPECT_EQ(t1.pages_cold, 0U);
  EXPECT_EQ(t1.transfer_cycles, 0U);

  // Growing the sequence allocates only the new page.
  const KvTouch t2 = cache.ensure(0, 13);
  EXPECT_EQ(t2.pages_hit, 3U);
  EXPECT_EQ(t2.pages_cold, 1U);
  EXPECT_EQ(cache.stats().hits, 6U);
  EXPECT_EQ(cache.stats().cold_allocs, 4U);
}

TEST(PagedKv, LruEvictionAndReloadAreDeterministic) {
  const PagedKvConfig cfg = small_pages();
  // Room for ~4 pages (alloc alignment overhead included).
  DeviceMemory mem(4 * (cfg.page_tokens * cfg.bytes_per_token +
                        2 * DeviceMemory::kAlignment));
  PagedKvCache cache(mem, cfg);

  (void)cache.ensure(0, 16);  // seq 0: 4 pages, arena now full
  KvTouch t = cache.ensure(1, 8);  // seq 1 needs 2 pages -> evict 2 LRU
  EXPECT_EQ(t.pages_cold, 2U);
  EXPECT_EQ(t.pages_evicted, 2U);
  EXPECT_EQ(cache.stats().evictions, 2U);

  // Touching seq 0 again reloads the evicted pages (not cold allocs).
  t = cache.ensure(0, 16);
  EXPECT_EQ(t.pages_reloaded, 2U);
  EXPECT_EQ(t.pages_cold, 0U);
  EXPECT_GT(cache.stats().reloads, 0U);

  // The whole dance is virtual-clock driven: a fresh cache replays the
  // same sequence of touches to identical counters.
  DeviceMemory mem2(4 * (cfg.page_tokens * cfg.bytes_per_token +
                         2 * DeviceMemory::kAlignment));
  PagedKvCache cache2(mem2, cfg);
  (void)cache2.ensure(0, 16);
  (void)cache2.ensure(1, 8);
  (void)cache2.ensure(0, 16);
  EXPECT_EQ(cache2.stats().hits, cache.stats().hits);
  EXPECT_EQ(cache2.stats().cold_allocs, cache.stats().cold_allocs);
  EXPECT_EQ(cache2.stats().reloads, cache.stats().reloads);
  EXPECT_EQ(cache2.stats().evictions, cache.stats().evictions);
  EXPECT_EQ(cache2.stats().transfer_cycles, cache.stats().transfer_cycles);
}

TEST(PagedKv, PinnedPagesSurviveOwnRequest) {
  const PagedKvConfig cfg = small_pages();
  DeviceMemory mem(3 * (cfg.page_tokens * cfg.bytes_per_token +
                        2 * DeviceMemory::kAlignment));
  PagedKvCache cache(mem, cfg);
  // One request needing all 3 page slots must not evict its own pages.
  const KvTouch t = cache.ensure(0, 12);
  EXPECT_EQ(t.pages_cold, 3U);
  EXPECT_EQ(t.pages_evicted, 0U);
  // A request larger than the arena fails loudly instead of thrashing.
  EXPECT_THROW((void)cache.ensure(1, 64), Error);
}

TEST(PagedKv, ReleaseFreesPages) {
  DeviceMemory mem(1 << 20);
  PagedKvCache cache(mem, small_pages());
  (void)cache.ensure(0, 16);
  (void)cache.ensure(1, 8);
  EXPECT_EQ(cache.resident_pages(), 6U);
  cache.release(0);
  EXPECT_EQ(cache.resident_pages(), 2U);
  // Re-ensuring a released sequence is a cold start, not a reload.
  const KvTouch t = cache.ensure(0, 4);
  EXPECT_EQ(t.pages_cold, 1U);
  EXPECT_EQ(t.pages_reloaded, 0U);
}

/// Reference LRU pager: a flat list of resident pages scanned linearly.
/// It holds `slots` pages, charges one page transfer per upload and per
/// writeback, breaks recency ties by (seq, index), and pins the pages the
/// current call needs.
class ReferencePager {
 public:
  ReferencePager(int page_tokens, std::size_t slots,
                 std::uint64_t page_cycles)
      : page_tokens_(page_tokens), slots_(slots), page_cycles_(page_cycles) {}

  KvTouch ensure(int seq, int token_count) {
    const int pages = (token_count + page_tokens_ - 1) / page_tokens_;
    KvTouch touch;
    for (int p = 0; p < pages; ++p) {
      ++clock_;
      const auto it = std::find_if(
          resident_.begin(), resident_.end(),
          [&](const Record& r) { return r.seq == seq && r.index == p; });
      if (it != resident_.end()) {
        it->last_touch = clock_;
        ++touch.pages_hit;
        ++stats_.hits;
        continue;
      }
      while (resident_.size() >= slots_) {
        std::size_t victim = resident_.size();
        for (std::size_t i = 0; i < resident_.size(); ++i) {
          const Record& r = resident_[i];
          if (r.seq == seq && r.index < pages) continue;
          if (victim == resident_.size() || older(r, resident_[victim])) {
            victim = i;
          }
        }
        if (victim == resident_.size()) throw Error("reference: too small");
        evicted_.push_back({resident_[victim].seq, resident_[victim].index});
        resident_.erase(resident_.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        touch.transfer_cycles += page_cycles_;
        stats_.transfer_cycles += page_cycles_;
        ++touch.pages_evicted;
        ++stats_.evictions;
      }
      touch.transfer_cycles += page_cycles_;
      stats_.transfer_cycles += page_cycles_;
      const auto ev = std::find(evicted_.begin(), evicted_.end(),
                                std::pair<int, int>{seq, p});
      if (ev != evicted_.end()) {
        evicted_.erase(ev);
        ++touch.pages_reloaded;
        ++stats_.reloads;
      } else {
        ++touch.pages_cold;
        ++stats_.cold_allocs;
      }
      resident_.push_back({seq, p, clock_});
    }
    return touch;
  }

  void release(int seq) {
    std::erase_if(resident_, [&](const Record& r) { return r.seq == seq; });
    std::erase_if(evicted_, [&](const std::pair<int, int>& k) {
      return k.first == seq;
    });
  }

  const KvStats& stats() const { return stats_; }

 private:
  struct Record {
    int seq;
    int index;
    std::uint64_t last_touch;
  };
  static bool older(const Record& a, const Record& b) {
    if (a.last_touch != b.last_touch) return a.last_touch < b.last_touch;
    return a.seq != b.seq ? a.seq < b.seq : a.index < b.index;
  }

  int page_tokens_;
  std::size_t slots_;
  std::uint64_t page_cycles_;
  std::uint64_t clock_ = 0;
  std::vector<Record> resident_;
  std::vector<std::pair<int, int>> evicted_;
  KvStats stats_;
};

void expect_same_touch(const KvTouch& got, const KvTouch& want,
                       const std::string& where) {
  EXPECT_EQ(got.pages_hit, want.pages_hit) << where;
  EXPECT_EQ(got.pages_cold, want.pages_cold) << where;
  EXPECT_EQ(got.pages_reloaded, want.pages_reloaded) << where;
  EXPECT_EQ(got.pages_evicted, want.pages_evicted) << where;
  EXPECT_EQ(got.transfer_cycles, want.transfer_cycles) << where;
}

// PagedKvCache against the reference pager under a seeded random mix of
// ensure (growing, shrinking and over-sized requests) and release, on
// arenas of 3 to 8 pages.
TEST(PagedKv, MatchesReferenceLruUnderRandomMix) {
  const PagedKvConfig cfg = small_pages();
  const std::uint64_t page_bytes = cfg.page_tokens * cfg.bytes_per_token;
  const HbmConfig hbm;
  const std::uint64_t page_cycles =
      transfer_cycles(hbm, page_bytes, hbm.bfp_burst_bytes);
  int throws = 0;
  for (std::uint64_t slots = 3; slots <= 8; ++slots) {
    DeviceMemory mem(slots * (page_bytes + 2 * DeviceMemory::kAlignment));
    PagedKvCache cache(mem, cfg);
    ReferencePager ref(cfg.page_tokens, slots, page_cycles);
    Rng rng(1000 + slots);
    for (int call = 0; call < 2000; ++call) {
      const int seq = static_cast<int>(rng.uniform_int(0, 4));
      const std::string where = "slots=" + std::to_string(slots) +
                                " call=" + std::to_string(call);
      if (rng.uniform_int(0, 9) == 0) {
        cache.release(seq);
        ref.release(seq);
        continue;
      }
      const int tokens = static_cast<int>(rng.uniform_int(
          0, static_cast<std::int64_t>(slots + 1) * cfg.page_tokens));
      KvTouch got;
      KvTouch want;
      bool got_threw = false;
      bool want_threw = false;
      try {
        got = cache.ensure(seq, tokens);
      } catch (const Error&) {
        got_threw = true;
      }
      try {
        want = ref.ensure(seq, tokens);
      } catch (const Error&) {
        want_threw = true;
      }
      ASSERT_EQ(got_threw, want_threw) << where;
      if (got_threw) {
        ++throws;
      } else {
        expect_same_touch(got, want, where);
      }
    }
    const KvStats& a = cache.stats();
    const KvStats& b = ref.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.cold_allocs, b.cold_allocs);
    EXPECT_EQ(a.reloads, b.reloads);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.transfer_cycles, b.transfer_cycles);
    EXPECT_GT(a.evictions, 0U);
    EXPECT_GT(a.reloads, 0U);
  }
  EXPECT_GT(throws, 0);
}

/// Resident set size of this process in bytes, from /proc/self/statm;
/// 0 where that file is unavailable.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// Device memory is an address space, not a byte store: paging ~1 GiB of
// simulated KV into an 8 GiB HBM model must not cost host memory.
TEST(PagedKv, SimulatedPagesHoldNoHostMemory) {
  const std::uint64_t before = resident_bytes();
  if (before == 0) GTEST_SKIP() << "/proc/self/statm unavailable";
  DeviceMemory mem;  // 8 GiB
  PagedKvConfig cfg;
  cfg.page_tokens = 16;
  cfg.bytes_per_token = 64 * 1024;  // 1 MiB pages
  PagedKvCache cache(mem, cfg);
  for (int seq = 0; seq < 4; ++seq) {
    const KvTouch t = cache.ensure(seq, 256 * cfg.page_tokens);
    EXPECT_EQ(t.pages_cold, 256U);
  }
  EXPECT_EQ(cache.resident_pages(), 1024U);
  EXPECT_GE(mem.allocated_bytes(), 1ULL << 30);
  const std::uint64_t after = resident_bytes();
  EXPECT_LT(after, before + (64ULL << 20))
      << "resident set grew by " << (after - before) / (1 << 20) << " MiB";
}

TEST(DecodeServe, MultiTurnContextsAccumulate) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  const AcceleratorSystem sys;
  const std::vector<ServeTurn> turns = {
      {0, 8, 4}, {1, 8, 4}, {0, 4, 4}, {1, 4, 4}};
  const DecodeServeReport rep = serve_decode(spec, sys, turns);

  ASSERT_EQ(rep.turns.size(), 4U);
  EXPECT_EQ(rep.turns[0].context_after, 12);
  EXPECT_EQ(rep.turns[2].context_after, 20);  // 12 + 4 prompt + 4 gen
  EXPECT_EQ(rep.total_tokens, 16U);
  EXPECT_GT(rep.total_cycles, 0U);
  EXPECT_GT(rep.tokens_per_second, 0.0);
  EXPECT_FALSE(rep.table().empty());

  // Deterministic across reruns.
  const DecodeServeReport again = serve_decode(spec, sys, turns);
  EXPECT_EQ(again.total_cycles, rep.total_cycles);
  EXPECT_EQ(again.kv.evictions, rep.kv.evictions);
  EXPECT_EQ(again.kv.transfer_cycles, rep.kv.transfer_cycles);
}

TEST(DecodeServe, TightArenaForcesEvictionsAndSlowsServing) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  const AcceleratorSystem sys;
  // Two interleaved full-context conversations.
  const std::vector<ServeTurn> turns = {
      {0, 8, 4}, {1, 8, 4}, {0, 8, 4}, {1, 8, 4}};

  DecodeServeConfig roomy;
  roomy.arena_bytes = 1ULL << 24;
  const DecodeServeReport fast = serve_decode(spec, sys, turns, roomy);
  EXPECT_EQ(fast.kv.evictions, 0U);

  DecodeServeConfig tight;
  tight.page_tokens = 4;
  // Exactly one sequence's worth of pages: the interleaving must thrash.
  tight.arena_bytes = 0;  // default = one full-context sequence
  const DecodeServeReport slow = serve_decode(spec, sys, turns, tight);
  EXPECT_GT(slow.kv.evictions, 0U);
  EXPECT_GT(slow.kv.reloads, 0U);
  EXPECT_GE(slow.total_cycles, fast.total_cycles);
  EXPECT_LT(slow.kv.hit_rate(), 1.0);
}

TEST(DecodeServe, RejectsEncoderSpecsAndOverflowingTurns) {
  const AcceleratorSystem sys;
  const std::vector<ServeTurn> one = {{0, 4, 2}};
  EXPECT_THROW(
      (void)serve_decode(load_model_spec("vit-tiny-test"), sys, one),
      ConfigError);
  const ModelSpec spec = load_model_spec("llama-tiny");
  const std::vector<ServeTurn> huge = {{0, spec.context, 1}};
  EXPECT_THROW((void)serve_decode(spec, sys, huge), Error);
}

// Every observable of a serve_decode report, one line per turn plus the
// totals; tokens_per_second at full double precision.
std::string pin_text(const DecodeServeReport& rep) {
  std::string s;
  char line[256];
  for (const TurnReport& t : rep.turns) {
    std::snprintf(line, sizeof line,
                  "seq=%d ctx=%d gen=%d decode=%llu dma=%llu hit=%llu "
                  "cold=%llu reload=%llu evict=%llu\n",
                  t.seq, t.context_after, t.generated,
                  static_cast<unsigned long long>(t.decode_cycles),
                  static_cast<unsigned long long>(t.kv_transfer_cycles),
                  static_cast<unsigned long long>(t.kv_hits),
                  static_cast<unsigned long long>(t.kv_cold),
                  static_cast<unsigned long long>(t.kv_reloads),
                  static_cast<unsigned long long>(t.kv_evictions));
    s += line;
  }
  std::snprintf(line, sizeof line,
                "kv hits=%llu cold=%llu reloads=%llu evictions=%llu "
                "dma=%llu page_bytes=%llu\n"
                "total_cycles=%llu tokens=%llu tok/s=%.17g\n",
                static_cast<unsigned long long>(rep.kv.hits),
                static_cast<unsigned long long>(rep.kv.cold_allocs),
                static_cast<unsigned long long>(rep.kv.reloads),
                static_cast<unsigned long long>(rep.kv.evictions),
                static_cast<unsigned long long>(rep.kv.transfer_cycles),
                static_cast<unsigned long long>(rep.kv_page_bytes),
                static_cast<unsigned long long>(rep.total_cycles),
                static_cast<unsigned long long>(rep.total_tokens),
                rep.tokens_per_second);
  s += line;
  return s;
}

// llm-decode with 16-token pages on a 64-page arena (the perfbench
// decode-paged shape): four conversations, two interleaved turns each, so
// the second round evicts and reloads.
TEST(DecodeServePins, LlmDecodeInterleavedOnHalfArena) {
  const ModelSpec spec = load_model_spec("llm-decode");
  const AcceleratorSystem sys;
  const std::vector<ServeTurn> turns = {
      {2, 128, 128}, {0, 120, 124}, {3, 136, 132}, {1, 112, 120},
      {1, 48, 128},  {3, 40, 124},  {0, 56, 136},  {2, 44, 120}};
  DecodeServeConfig cfg;
  cfg.page_tokens = 16;
  const ServeTurn probe{0, 0, 1};
  const std::uint64_t page_bytes =
      serve_decode(spec, sys, std::span(&probe, 1), cfg).kv_page_bytes;
  cfg.arena_bytes = 64 * (page_bytes + 2 * DeviceMemory::kAlignment);
  const DecodeServeReport rep = serve_decode(spec, sys, turns, cfg);
  EXPECT_GT(rep.kv.evictions, 0U);
  EXPECT_GT(rep.kv.reloads, 0U);
  EXPECT_EQ(pin_text(rep),
            "seq=2 ctx=256 gen=128 decode=1700462592 dma=561600 hit=1592 "
            "cold=16 reload=0 evict=0\n"
            "seq=0 ctx=244 gen=124 decode=1643065344 dma=561600 hit=1464 "
            "cold=16 reload=0 evict=0\n"
            "seq=3 ctx=268 gen=132 decode=1758191616 dma=596700 hit=1724 "
            "cold=17 reload=0 evict=0\n"
            "seq=1 ctx=232 gen=120 decode=1585889280 dma=526500 hit=1344 "
            "cold=15 reload=0 evict=0\n"
            "seq=1 ctx=408 gen=128 decode=1767702528 dma=772200 hit=2823 "
            "cold=11 reload=0 evict=11\n"
            "seq=3 ctx=432 gen=124 decode=1723576320 dma=702000 hit=2938 "
            "cold=10 reload=0 evict=10\n"
            "seq=0 ctx=436 gen=136 decode=1889464320 dma=1193400 hit=3198 "
            "cold=12 reload=5 evict=17\n"
            "seq=2 ctx=420 gen=120 decode=1663856640 dma=1895400 hit=2752 "
            "cold=11 reload=16 evict=27\n"
            "kv hits=17835 cold=108 reloads=21 evictions=65 dma=6809400 "
            "page_bytes=1597440\n"
            "total_cycles=13739018040 tokens=1012 "
            "tok/s=22.097649127186095\n");
}

// The llama-tiny run `bfpsim serve --model llama-tiny` makes by default:
// two conversations of two turns at (context/4 prompt, context/8 gen) on
// the default one-context arena.
TEST(DecodeServePins, LlamaTinyDefaultRun) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  const AcceleratorSystem sys;
  const std::vector<ServeTurn> turns = {
      {0, 8, 4}, {1, 8, 4}, {0, 8, 4}, {1, 8, 4}};
  const DecodeServeReport rep = serve_decode(spec, sys, turns);
  EXPECT_EQ(pin_text(rep),
            "seq=0 ctx=12 gen=4 decode=18432 dma=59 hit=4 cold=1 reload=0 "
            "evict=0\n"
            "seq=1 ctx=12 gen=4 decode=18432 dma=59 hit=4 cold=1 reload=0 "
            "evict=0\n"
            "seq=0 ctx=24 gen=4 decode=19584 dma=118 hit=9 cold=1 reload=0 "
            "evict=1\n"
            "seq=1 ctx=24 gen=4 decode=19584 dma=236 hit=8 cold=1 reload=1 "
            "evict=2\n"
            "kv hits=25 cold=4 reloads=1 evictions=3 dma=472 "
            "page_bytes=2080\n"
            "total_cycles=76504 tokens=16 tok/s=62741.817421311302\n");
}

}  // namespace
}  // namespace bfpsim
