// Event-driven double-buffering timeline.
//
// The memory model (hbm.hpp) folds DMA/compute overlap into a single
// `overlap` fraction. This module earns that abstraction: it simulates the
// actual ping-pong schedule — one DMA engine (the unit's AXI channel pair,
// shared by loads and stores) and one compute engine over two operand
// banks — and reports the exact makespan, so tests can check the analytic
// model against the event-driven one and benches can show what
// double-buffering buys (the Y-stationary dataflow's "keep Y as long as
// possible" story of Section II-D).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bfpsim {

/// One pass through the unit: load operands, compute, store results.
struct PassSpec {
  std::uint64_t load_cycles = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t store_cycles = 0;
};

/// Scheduled intervals of one pass (for inspection/trace).
struct PassTimeline {
  std::uint64_t load_start = 0;
  std::uint64_t load_end = 0;
  std::uint64_t compute_start = 0;
  std::uint64_t compute_end = 0;
  std::uint64_t store_start = 0;
  std::uint64_t store_end = 0;
};

struct PipelineTotals {
  std::uint64_t total_cycles = 0;
  double compute_busy_fraction = 0.0;  ///< compute-engine occupancy
  double dma_busy_fraction = 0.0;      ///< DMA-engine occupancy
};

struct PipelineResult : PipelineTotals {
  std::vector<PassTimeline> passes;
};

/// Simulate the pass sequence.
///
/// Rules:
///  * one DMA engine: loads and stores serialize on it, FIFO order
///    (load of the next pass is issued before the store of the current
///    pass completes only if it was enqueued first — loads are enqueued
///    as early as banking allows, stores when their compute finishes);
///  * one compute engine: in-order passes, compute(i) needs load(i) done
///    and compute(i-1) done;
///  * `double_buffered`: with two operand banks, load(i+1) may start while
///    compute(i) runs; single-buffered, load(i+1) waits for compute(i).
///
/// Pass i's intervals go to `timeline[i]`; `timeline` must hold exactly
/// passes.size() entries and is overwritten whole, so callers can reuse
/// one buffer across calls. Allocates nothing.
PipelineTotals simulate_pipeline(std::span<const PassSpec> passes,
                                 bool double_buffered,
                                 std::span<PassTimeline> timeline);

/// The same simulation into a freshly allocated timeline.
PipelineResult simulate_pipeline(std::span<const PassSpec> passes,
                                 bool double_buffered);

}  // namespace bfpsim
