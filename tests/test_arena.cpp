// Arena allocator contract tests plus the serving determinism pin.
//
// Two halves:
//  1. The Arena/ArenaScope/ArenaAllocator contracts in isolation —
//     alignment, bump reuse after reset, geometric exhaustion growth, LIFO
//     mark/release (including the must-unwind contract violation), the
//     null-arena heap fallback, and the stats counters the bench reads.
//  2. The serving determinism pin: with the event loop's per-dispatch
//     scratch in an arena, the serve report and every functional output
//     float must be byte-identical across thread-pool sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fabric/system.hpp"
#include "serving/event_loop.hpp"
#include "serving/workload.hpp"
#include "transformer/config.hpp"
#include "transformer/model.hpp"

namespace bfpsim {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(Arena, AlignmentAndBumpBasics) {
  Arena arena;
  EXPECT_EQ(arena.chunk_count(), 0u);  // first chunk is lazy
  EXPECT_EQ(arena.bytes_in_use(), 0u);

  char* a = arena.alloc_array<char>(3);
  ASSERT_NE(a, nullptr);
  double* d = arena.alloc_array<double>(4);
  ASSERT_TRUE(aligned_to(d, alignof(double)));
  std::int64_t* q = arena.alloc_array<std::int64_t>(1);
  ASSERT_TRUE(aligned_to(q, alignof(std::int64_t)));
  void* wide = arena.allocate(1, 64);
  ASSERT_TRUE(aligned_to(wide, 64));

  // The memory is real and independent: writes don't alias.
  a[0] = 'x';
  d[0] = 2.5;
  q[0] = -7;
  EXPECT_EQ(a[0], 'x');
  EXPECT_EQ(d[0], 2.5);
  EXPECT_EQ(q[0], -7);

  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_GT(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.total_allocations(), 4u);

  // Zero-byte requests still hand back an aligned, non-null pointer.
  void* z = arena.allocate(0, 16);
  ASSERT_NE(z, nullptr);
  EXPECT_TRUE(aligned_to(z, 16));

  // Alignment must be a power of two.
  EXPECT_THROW(arena.allocate(8, 3), Error);
}

TEST(Arena, ResetRecyclesChunksInPlace) {
  Arena arena(256);
  void* first = arena.allocate(64, 8);
  arena.allocate(64, 8);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t reserved = arena.bytes_reserved();

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks);        // chunks kept for reuse
  EXPECT_EQ(arena.bytes_reserved(), reserved);   // nothing freed

  // Refilling after reset lands on the exact same storage: no new chunks.
  void* again = arena.allocate(64, 8);
  EXPECT_EQ(again, first);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, ExhaustionGrowsGeometrically) {
  Arena arena(64);
  // 1 MiB in 1 KiB bites from a 64-byte first chunk: growth doubles each
  // time, so the chunk count stays logarithmic, not linear.
  std::vector<unsigned char*> ptrs;
  constexpr int kAllocs = 1024;
  for (int i = 0; i < kAllocs; ++i) {
    unsigned char* p = arena.alloc_array<unsigned char>(1024);
    p[0] = static_cast<unsigned char>(i);  // memory must stay valid
    ptrs.push_back(p);
  }
  EXPECT_GE(arena.bytes_reserved(), static_cast<std::size_t>(kAllocs) * 1024);
  EXPECT_LE(arena.chunk_count(), 20u) << "growth should be geometric";
  // Every earlier block survived the growth (chunks are stable, never
  // reallocated or moved).
  for (int i = 0; i < kAllocs; ++i) {
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][0],
              static_cast<unsigned char>(i));
  }
  EXPECT_EQ(arena.peak_bytes(), arena.bytes_in_use());
}

TEST(Arena, MarkReleaseIsLifo) {
  Arena arena(128);
  arena.allocate(32, 8);
  const Arena::Marker outer = arena.mark();
  void* p1 = arena.allocate(4096, 8);  // spills into a second chunk
  const std::size_t spilled_use = arena.bytes_in_use();
  arena.allocate(4096, 8);
  EXPECT_GT(arena.bytes_in_use(), spilled_use);

  arena.release(arena.mark());  // releasing the frontier is a no-op
  EXPECT_GT(arena.bytes_in_use(), spilled_use);

  const Arena::Marker inner = arena.mark();
  arena.release(inner);
  arena.release(outer);
  // The frontier rewound: the next allocation reuses p1's bytes.
  EXPECT_EQ(arena.allocate(4096, 8), p1);

  // A marker *ahead* of the frontier is a contract violation: release
  // unwinds, never advances.
  arena.release(outer);
  EXPECT_THROW(arena.release(inner), Error);
}

TEST(Arena, ScopeUnwindsOnExitAndOnThrow) {
  Arena arena(256);
  arena.allocate(16, 8);
  const std::size_t base_use = arena.bytes_in_use();
  {
    ArenaScope scope(&arena);
    arena.allocate(64, 8);
    {
      ArenaScope nested(&arena);
      arena.allocate(64, 8);
    }
    EXPECT_EQ(arena.bytes_in_use(), base_use + 64);
  }
  EXPECT_EQ(arena.bytes_in_use(), base_use);

  try {
    ArenaScope scope(&arena);
    arena.allocate(1024, 8);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(arena.bytes_in_use(), base_use);

  // A null arena is a valid no-op scope.
  { ArenaScope off(nullptr); }
}

TEST(Arena, AllocatorBacksStdVectorAndFallsBackToHeap) {
  Arena arena(256);
  {
    ArenaScope scope(&arena);
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i * 3);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(v[static_cast<std::size_t>(i)], i * 3);
    }
    EXPECT_GT(arena.bytes_in_use(), 0u);
  }

  // Null arena: the same container type runs on the plain heap.
  std::vector<int, ArenaAllocator<int>> heap_backed{ArenaAllocator<int>()};
  for (int i = 0; i < 100; ++i) heap_backed.push_back(i);
  EXPECT_EQ(heap_backed.size(), 100u);

  // Allocator identity is the arena pointer (container move semantics).
  ArenaAllocator<int> a1(&arena);
  ArenaAllocator<float> a2(a1);  // rebind keeps the arena
  EXPECT_TRUE(ArenaAllocator<int>(a2) == a1);
  EXPECT_TRUE(ArenaAllocator<int>() != a1);
}

TEST(Arena, ScratchArenaIsPerThreadAndScoped) {
  Arena& s1 = scratch_arena();
  Arena& s2 = scratch_arena();
  EXPECT_EQ(&s1, &s2);  // same thread, same arena

  Arena* other = nullptr;
  std::thread t([&] {
    other = &scratch_arena();
    ArenaScope scope(other);
    other->allocate(64, 8);
  });
  t.join();
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, &s1);  // each thread owns a distinct scratch arena
}

/// ---- the serving determinism pin (ISSUE satellite) ----

TEST(ArenaServing, ReportsByteIdenticalAcrossThreads) {
  // serve_online with the arena-backed dispatch scratch must emit the
  // byte-identical report and identical output feature bits for every
  // pool size.
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;
  const ArrivalTrace trace =
      poisson_trace(12, 2500.0, /*seed=*/7, sys.config().pu.freq_hz);

  ServePolicy policy;
  policy.queue_capacity = 8;
  policy.max_batch = 3;
  const OnlineServeResult want = serve_online(model, sys, trace, policy);
  const std::string want_json = want.report.to_json();
  ASSERT_FALSE(want_json.empty());

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const OnlineServeResult got =
        serve_online(model, sys, trace, policy, &pool);
    ASSERT_EQ(got.report.to_json(), want_json) << "threads=" << threads;
    ASSERT_EQ(got.features.size(), want.features.size());
    for (std::size_t i = 0; i < want.features.size(); ++i) {
      ASSERT_EQ(got.features[i].size(), want.features[i].size());
      ASSERT_EQ(0, std::memcmp(got.features[i].data(),
                               want.features[i].data(),
                               want.features[i].size() * sizeof(float)))
          << "request " << i << " threads=" << threads;
    }
    ASSERT_EQ(got.compute_cycles, want.compute_cycles);
  }
}

}  // namespace
}  // namespace bfpsim
