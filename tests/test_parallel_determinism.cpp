// Determinism guarantees of the parallel execution engine: for any worker
// count the batch serving path, the session batch path, and the tiled GEMM
// produce bit-identical outputs, identical modelled cycle counts, and
// identical counter totals — plus unit tests of the ThreadPool contract
// itself (index coverage, nesting, exception propagation).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pu/processing_unit.hpp"
#include "runtime/session.hpp"
#include "transformer/serving.hpp"

namespace bfpsim {
namespace {

/// ----------------- ThreadPool contract -----------------

TEST(ThreadPool, SizeClampsAndHardwareFloor) {
  EXPECT_EQ(ThreadPool(0).size(), 1);
  EXPECT_EQ(ThreadPool(-3).size(), 1);
  EXPECT_EQ(ThreadPool(4).size(), 4);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{1000}}) {
      std::vector<int> hits(n, 0);
      pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "threads=" << threads << " n=" << n
                              << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> inner(16);
  pool.parallel_for(16, [&](std::size_t i) {
    inner[i].assign(8, 0);
    // A work item calling back into the pool must not deadlock; the
    // nested loop runs inline on the same worker.
    pool.parallel_for(8, [&](std::size_t j) { ++inner[i][j]; });
  });
  for (const auto& row : inner) {
    for (int h : row) ASSERT_EQ(h, 1);
  }
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  // The pool is reusable after a failed batch.
  std::vector<int> hits(50, 0);
  pool.parallel_for(50, [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

/// ----------------- engine-level determinism -----------------

TEST(ParallelDeterminism, LargeGemmBitIdenticalAcrossThreadCounts) {
  Rng rng(811);
  const int m = 96;
  const int k = 64;
  const int n = 120;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  ProcessingUnit pu;
  const GemmRun want = pu.gemm_bfp8_fast(a, m, k, b, n);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const GemmRun got = pu.gemm_bfp8_fast(a, m, k, b, n, &pool);
    EXPECT_EQ(got.compute_cycles, want.compute_cycles)
        << "threads=" << threads;
    EXPECT_EQ(got.macs, want.macs) << "threads=" << threads;
    ASSERT_EQ(got.c.size(), want.c.size());
    for (std::size_t i = 0; i < want.c.size(); ++i) {
      ASSERT_EQ(got.c[i], want.c[i])
          << "threads=" << threads << " element " << i;
    }
  }
}

TEST(ParallelDeterminism, BatchExecutionInvariantUnderThreadCount) {
  // The full functional batch path: features, per-image cycles, schedule,
  // pipeline timelines, and counter totals must not depend on the worker
  // count (including serial == 1-thread pool == 8-thread pool).
  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 17)};
  const AcceleratorSystem sys;
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 7; ++i) {
    images.push_back(random_embeddings(cfg, 100 + i));
  }

  const BatchExecution want = execute_transformer_batch(model, sys, images);
  ASSERT_EQ(want.features.size(), images.size());
  EXPECT_EQ(want.timing.batch, static_cast<int>(images.size()));
  EXPECT_GT(want.timing.makespan_cycles, 0u);
  EXPECT_GE(want.io_makespan_cycles, want.timing.makespan_cycles);

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const BatchExecution got =
        execute_transformer_batch(model, sys, images, &pool);

    // Functional outputs: exact bits, every image.
    ASSERT_EQ(got.features.size(), want.features.size());
    for (std::size_t i = 0; i < want.features.size(); ++i) {
      ASSERT_EQ(got.features[i], want.features[i])
          << "threads=" << threads << " image " << i;
    }

    // Modelled time: exact cycle counts.
    EXPECT_EQ(got.image_stats, want.image_stats) << "threads=" << threads;
    EXPECT_EQ(got.timing.makespan_cycles, want.timing.makespan_cycles);
    EXPECT_EQ(got.timing.per_image_cycles, want.timing.per_image_cycles);
    EXPECT_DOUBLE_EQ(got.timing.images_per_second,
                     want.timing.images_per_second);
    EXPECT_DOUBLE_EQ(got.timing.utilization, want.timing.utilization);
    EXPECT_EQ(got.io_makespan_cycles, want.io_makespan_cycles);

    // Schedule: identical placement.
    ASSERT_EQ(got.schedule.units.size(), want.schedule.units.size());
    for (std::size_t u = 0; u < want.schedule.units.size(); ++u) {
      EXPECT_EQ(got.schedule.units[u].cycles, want.schedule.units[u].cycles);
      ASSERT_EQ(got.schedule.units[u].items, want.schedule.units[u].items)
          << "threads=" << threads << " unit " << u;
    }

    // Per-unit pipeline timelines.
    ASSERT_EQ(got.unit_timelines.size(), want.unit_timelines.size());
    for (std::size_t u = 0; u < want.unit_timelines.size(); ++u) {
      EXPECT_EQ(got.unit_timelines[u].total_cycles,
                want.unit_timelines[u].total_cycles)
          << "threads=" << threads << " unit " << u;
    }

    // Counter totals, via the deterministic snapshot.
    EXPECT_EQ(got.counters.snapshot(), want.counters.snapshot())
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, AnalyticThroughputUnaffectedByEngine) {
  // batch_transformer_throughput is closed-form; re-running it while a
  // pool-backed functional batch executes in between must not change it
  // (guards against hidden shared state in the system model).
  const VitConfig cfg = vit_test_tiny();
  const AcceleratorSystem sys;
  const BatchResult before = batch_transformer_throughput(cfg, sys, 30);
  const VitModel model{random_weights(cfg, 3)};
  std::vector<std::vector<float>> images{random_embeddings(cfg, 1),
                                         random_embeddings(cfg, 2)};
  ThreadPool pool(8);
  (void)execute_transformer_batch(model, sys, images, &pool);
  const BatchResult after = batch_transformer_throughput(cfg, sys, 30);
  EXPECT_EQ(before.per_image_cycles, after.per_image_cycles);
  EXPECT_EQ(before.makespan_cycles, after.makespan_cycles);
  EXPECT_DOUBLE_EQ(before.images_per_second, after.images_per_second);
  EXPECT_DOUBLE_EQ(before.utilization, after.utilization);
}

TEST(ParallelDeterminism, SessionBatchInferenceInvariant) {
  // Session::infer_batch: results, per-image DMA/compute accounting, the
  // command log, and the batch schedule must be identical for serial and
  // pooled execution.
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 23);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 5; ++i) {
    images.push_back(random_embeddings(cfg, 40 + i));
  }

  auto run = [&](ThreadPool* pool) {
    Session s;
    const ModelId id = s.deploy(w, "det");
    s.clear_log();
    auto out = std::make_pair(s.infer_batch(id, images, pool), s.log());
    return out;
  };

  const auto [want, want_log] = run(nullptr);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const auto [got, got_log] = run(&pool);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t i = 0; i < want.results.size(); ++i) {
      ASSERT_EQ(got.results[i].features, want.results[i].features)
          << "threads=" << threads << " image " << i;
      ASSERT_EQ(got.results[i].logits, want.results[i].logits);
      EXPECT_EQ(got.results[i].dma_cycles, want.results[i].dma_cycles);
      EXPECT_EQ(got.results[i].total_cycles, want.results[i].total_cycles);
    }
    EXPECT_EQ(got.makespan_cycles, want.makespan_cycles);
    EXPECT_DOUBLE_EQ(got.images_per_second, want.images_per_second);
    EXPECT_DOUBLE_EQ(got.utilization, want.utilization);
    ASSERT_EQ(got_log.size(), want_log.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < want_log.size(); ++i) {
      EXPECT_EQ(static_cast<int>(got_log[i].kind),
                static_cast<int>(want_log[i].kind));
      EXPECT_EQ(got_log[i].detail, want_log[i].detail);
      EXPECT_EQ(got_log[i].bytes, want_log[i].bytes);
      EXPECT_EQ(got_log[i].cycles, want_log[i].cycles);
    }
  }
}

TEST(ParallelDeterminism, RepeatedPooledRunsAreStable) {
  // Same pool, same inputs, many runs: no run-to-run drift (catches
  // accidental dependence on scheduling order or reused buffers).
  Rng rng(900);
  const int m = 40;
  const int k = 40;
  const int n = 40;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  ProcessingUnit pu;
  ThreadPool pool(8);
  const GemmRun first = pu.gemm_bfp8_fast(a, m, k, b, n, &pool);
  for (int rep = 0; rep < 10; ++rep) {
    const GemmRun again = pu.gemm_bfp8_fast(a, m, k, b, n, &pool);
    ASSERT_EQ(again.c, first.c) << "rep " << rep;
  }
}

}  // namespace
}  // namespace bfpsim
