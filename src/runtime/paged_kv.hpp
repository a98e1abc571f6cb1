// Paged KV-cache residency over the device memory model.
//
// Decode serving keeps each sequence's attention K/V tensors resident in
// HBM between turns. Following the vLLM-style paged design, the cache is
// an arena of fixed-size pages (page_tokens tokens each, all layers' K+V
// for those tokens packed per page); a per-sequence page table maps token
// positions to pages. When the arena is full, the least-recently-used
// page is evicted (charged a modelled DMA writeback to host) and must be
// streamed back in on the next touch — a *reload miss*, the multi-turn
// cost this model exists to expose. No page contents exist on the host:
// uploads and writebacks are priced by byte count, not copied.
//
// Everything is deterministic: recency is a virtual touch counter, and
// eviction ties break by (sequence id, page index). Transfer costs come
// from DeviceMemory::transfer, so hits/misses/evictions are all priced in
// device cycles.
#pragma once

#include <cstdint>
#include <map>

#include "runtime/device_memory.hpp"

namespace bfpsim {

struct PagedKvConfig {
  int page_tokens = 16;              ///< tokens per page
  std::uint64_t bytes_per_token = 0; ///< all-layer K+V footprint of one token
};

/// What one ensure() call did.
struct KvTouch {
  std::uint64_t pages_hit = 0;       ///< resident, no transfer
  std::uint64_t pages_cold = 0;      ///< first allocation (prefill writes)
  std::uint64_t pages_reloaded = 0;  ///< evicted earlier, streamed back
  std::uint64_t pages_evicted = 0;   ///< LRU victims written back
  std::uint64_t transfer_cycles = 0; ///< modelled DMA for all of the above
};

/// Lifetime cache counters.
struct KvStats {
  std::uint64_t hits = 0;
  std::uint64_t cold_allocs = 0;
  std::uint64_t reloads = 0;
  std::uint64_t evictions = 0;
  std::uint64_t transfer_cycles = 0;

  double hit_rate() const {
    const double touches =
        static_cast<double>(hits + cold_allocs + reloads);
    return touches == 0.0 ? 1.0 : static_cast<double>(hits) / touches;
  }
};

class PagedKvCache {
 public:
  /// The cache allocates pages from `mem` (not owned; must outlive the
  /// cache). `cfg.bytes_per_token` must be positive.
  PagedKvCache(DeviceMemory& mem, const PagedKvConfig& cfg);
  ~PagedKvCache();

  PagedKvCache(const PagedKvCache&) = delete;
  PagedKvCache& operator=(const PagedKvCache&) = delete;

  /// Make every page covering tokens [0, token_count) of `seq` resident,
  /// touching them in page order. Cold pages are uploaded, previously
  /// evicted pages reloaded; when the arena is exhausted the LRU page of
  /// any *other* position is evicted first (pages needed by this call are
  /// pinned for its duration).
  KvTouch ensure(int seq, int token_count);

  /// Drop a sequence entirely (frees its pages; no writeback — the turn
  /// is over and the host already has the tokens).
  void release(int seq);

  const KvStats& stats() const { return stats_; }
  std::uint64_t page_bytes() const { return page_bytes_; }
  std::uint64_t resident_pages() const { return resident_.size(); }

 private:
  struct PageKey {
    int seq = 0;
    int index = 0;  ///< page index within the sequence
    bool operator<(const PageKey& o) const {
      return seq != o.seq ? seq < o.seq : index < o.index;
    }
  };
  struct Page {
    DeviceBuffer buf;
    std::uint64_t last_touch = 0;
  };

  /// Evict the LRU page other than pages [0, pinned_pages) of `seq`;
  /// returns false when nothing is evictable. Writeback cycles are charged
  /// to `touch` and stats.
  bool evict_one(int seq, int pinned_pages, KvTouch& touch);

  DeviceMemory& mem_;
  PagedKvConfig cfg_;
  std::uint64_t page_bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::map<PageKey, Page> resident_;
  /// Pages that were evicted and will reload (vs. never-seen cold pages).
  std::map<PageKey, char> evicted_;
  KvStats stats_;
};

}  // namespace bfpsim
