// Batch transformer serving on the multi-unit system: each image runs
// wholly on one unit (weights stay resident, no cross-unit traffic) and
// the batch spreads across units through the LPT scheduler — the
// deployment mode Section III-A's "independent instructions" enables.
//
// Two entry points:
//  * batch_transformer_throughput — the analytic model (per-image latency
//    from the workload analysis, LPT placement, closed-form throughput);
//  * execute_transformer_batch — the functional engine: every image
//    actually runs the mixed bfp8/fp32 forward through the golden-
//    reference PU numerics, with the per-unit work executed concurrently
//    on a host thread pool (one simulated PU per worker, weights shared
//    read-only). Modelled cycles, utilization, and every output bit are
//    identical for any worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "fabric/pipeline.hpp"
#include "fabric/scheduler.hpp"
#include "fabric/system.hpp"
#include "sim/counters.hpp"
#include "transformer/config.hpp"
#include "transformer/model.hpp"

namespace bfpsim {

struct BatchResult {
  int batch = 0;
  std::uint64_t per_image_cycles = 0;  ///< single-unit end-to-end latency
  std::uint64_t makespan_cycles = 0;
  double latency_ms_per_image = 0.0;
  double images_per_second = 0.0;
  double utilization = 0.0;
};

/// Throughput/latency of serving `batch` images of model `cfg` on `sys`
/// (analytic: no functional data flows).
BatchResult batch_transformer_throughput(const VitConfig& cfg,
                                         const AcceleratorSystem& sys,
                                         int batch);

/// Outcome of a functional batch execution.
struct BatchExecution {
  /// Modelled schedule numbers, from the *functional* per-image cycle
  /// counts (forward stats), LPT-placed — deterministic and thread-count
  /// independent.
  BatchResult timing;
  ScheduleResult schedule;                   ///< image -> unit placement
  std::vector<std::vector<float>> features;  ///< per-image block outputs
  std::vector<ForwardStats> image_stats;     ///< per-image forward stats
  /// Event-driven per-unit load/compute/store timelines (double-buffered
  /// ping-pong over the unit's AXI channel pair; fabric/pipeline.hpp),
  /// one per unit in unit order.
  std::vector<PipelineResult> unit_timelines;
  /// Makespan including exposed DMA from the per-unit timelines (>= the
  /// compute-only timing.makespan_cycles).
  std::uint64_t io_makespan_cycles = 0;
  /// Aggregated statistics, merged in image-index order (deterministic).
  Counters counters;
};

/// Functionally serve `images` (each tokens x embed_dim) of `model` on the
/// multi-unit system: LPT-place images whole-per-unit, run every image's
/// mixed-precision forward on its own single-unit simulated PU, and build
/// per-unit event-driven timelines.
///
/// `pool` is the parallel execution engine; null (or a 1-thread pool) runs
/// serially. For any pool size the features, cycle counts, utilization and
/// counter totals are bit-identical: images share only immutable state
/// (weights, configs), per-image work is placed into index-owned slots,
/// and all reductions happen on the calling thread in fixed index order.
BatchExecution execute_transformer_batch(
    const VitModel& model, const AcceleratorSystem& sys,
    std::span<const std::vector<float>> images, ThreadPool* pool = nullptr);

}  // namespace bfpsim
