#include "fabric/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bfpsim {

PipelineTotals simulate_pipeline(std::span<const PassSpec> passes,
                                 bool double_buffered,
                                 std::span<PassTimeline> timeline) {
  BFP_REQUIRE(timeline.size() == passes.size(),
              "simulate_pipeline: one timeline entry per pass required");
  PipelineTotals r;
  const std::size_t n = passes.size();
  if (n == 0) return r;

  std::uint64_t dma_free = 0;
  std::uint64_t compute_free = 0;

  // Prologue: the first load has no predecessor constraints.
  timeline[0].load_start = 0;
  timeline[0].load_end = passes[0].load_cycles;
  dma_free = timeline[0].load_end;

  std::uint64_t dma_busy = passes[0].load_cycles;
  std::uint64_t compute_busy = 0;

  for (std::size_t i = 0; i < n; ++i) {
    PassTimeline& t = timeline[i];

    // Compute: in order, after this pass's operands arrive.
    t.compute_start = std::max(t.load_end, compute_free);
    t.compute_end = t.compute_start + passes[i].compute_cycles;
    compute_free = t.compute_end;
    compute_busy += passes[i].compute_cycles;

    // Prefetch the next pass's operands before this pass's store (loads
    // take DMA priority); banking gates how early the load may begin.
    if (i + 1 < n) {
      PassTimeline& nt = timeline[i + 1];
      std::uint64_t bank_ready;
      if (double_buffered) {
        // Two banks: the bank for pass i+1 is the one pass i-1 used.
        bank_ready = i >= 1 ? timeline[i - 1].compute_end : 0;
      } else {
        // One bank: must wait for this pass's compute to drain it.
        bank_ready = t.compute_end;
      }
      nt.load_start = std::max(dma_free, bank_ready);
      nt.load_end = nt.load_start + passes[i + 1].load_cycles;
      dma_free = nt.load_end;
      dma_busy += passes[i + 1].load_cycles;
    }

    // Store results once computed; shares the DMA engine.
    t.store_start = std::max(dma_free, t.compute_end);
    t.store_end = t.store_start + passes[i].store_cycles;
    dma_free = t.store_end;
    dma_busy += passes[i].store_cycles;
  }

  for (const PassTimeline& t : timeline) {
    r.total_cycles = std::max({r.total_cycles, t.compute_end, t.store_end});
  }
  BFP_ASSERT(r.total_cycles > 0);
  r.compute_busy_fraction = static_cast<double>(compute_busy) /
                            static_cast<double>(r.total_cycles);
  r.dma_busy_fraction =
      static_cast<double>(dma_busy) / static_cast<double>(r.total_cycles);
  return r;
}

PipelineResult simulate_pipeline(std::span<const PassSpec> passes,
                                 bool double_buffered) {
  PipelineResult r;
  r.passes.resize(passes.size());
  static_cast<PipelineTotals&>(r) =
      simulate_pipeline(passes, double_buffered, r.passes);
  return r;
}

}  // namespace bfpsim
