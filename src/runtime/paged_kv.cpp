#include "runtime/paged_kv.hpp"

#include "common/error.hpp"

namespace bfpsim {

PagedKvCache::PagedKvCache(DeviceMemory& mem, const PagedKvConfig& cfg)
    : mem_(mem), cfg_(cfg) {
  BFP_REQUIRE(cfg.page_tokens >= 1,
              "PagedKvCache: page_tokens must be positive");
  BFP_REQUIRE(cfg.bytes_per_token > 0,
              "PagedKvCache: bytes_per_token must be positive");
  page_bytes_ =
      static_cast<std::uint64_t>(cfg.page_tokens) * cfg.bytes_per_token;
}

PagedKvCache::~PagedKvCache() {
  for (auto& [key, page] : resident_) {
    (void)key;
    mem_.free(page.buf);
  }
}

bool PagedKvCache::evict_one(int seq, int pinned_pages, KvTouch& touch) {
  const Page* victim = nullptr;
  PageKey victim_key;
  for (const auto& [key, page] : resident_) {
    if (key.seq == seq && key.index < pinned_pages) continue;
    // Strict < keeps the tie-break on the map's (seq, index) order: the
    // first-seen page among equals wins, deterministically.
    if (victim == nullptr || page.last_touch < victim->last_touch) {
      victim = &page;
      victim_key = key;
    }
  }
  if (victim == nullptr) return false;
  // Charge the page's writeback to the host before dropping it; the
  // reload pays the mirror-image upload.
  const std::uint64_t wb = mem_.transfer(victim->buf, 0, page_bytes_);
  touch.transfer_cycles += wb;
  stats_.transfer_cycles += wb;
  mem_.free(victim->buf);
  resident_.erase(victim_key);
  evicted_[victim_key] = 1;
  ++stats_.evictions;
  return true;
}

KvTouch PagedKvCache::ensure(int seq, int token_count) {
  BFP_REQUIRE(token_count >= 0, "PagedKvCache: negative token count");
  const int pages =
      (token_count + cfg_.page_tokens - 1) / cfg_.page_tokens;

  KvTouch touch;
  for (int p = 0; p < pages; ++p) {
    const PageKey key{seq, p};
    ++clock_;
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      it->second.last_touch = clock_;
      ++touch.pages_hit;
      ++stats_.hits;
      continue;
    }
    // Not resident: make room, then upload.
    DeviceBuffer buf;
    for (;;) {
      if (mem_.free_bytes() >= page_bytes_ + DeviceMemory::kAlignment) {
        try {
          buf = mem_.alloc(page_bytes_);
          break;
        } catch (const Error&) {
          // Fragmented: fall through to evict.
        }
      }
      BFP_REQUIRE(evict_one(seq, pages, touch),
                  "PagedKvCache: arena too small for one request's pages");
      ++touch.pages_evicted;
    }
    const std::uint64_t up = mem_.transfer(buf, 0, page_bytes_);
    touch.transfer_cycles += up;
    stats_.transfer_cycles += up;
    const bool reload = evicted_.erase(key) != 0;
    if (reload) {
      ++touch.pages_reloaded;
      ++stats_.reloads;
    } else {
      ++touch.pages_cold;
      ++stats_.cold_allocs;
    }
    resident_[key] = Page{buf, clock_};
  }
  return touch;
}

void PagedKvCache::release(int seq) {
  for (auto it = resident_.begin(); it != resident_.end();) {
    if (it->first.seq == seq) {
      mem_.free(it->second.buf);
      it = resident_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = evicted_.begin(); it != evicted_.end();) {
    if (it->first.seq == seq) {
      it = evicted_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace bfpsim
