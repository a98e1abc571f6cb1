#include "transformer/serving.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "transformer/latency.hpp"

namespace bfpsim {

BatchResult batch_transformer_throughput(const VitConfig& cfg,
                                         const AcceleratorSystem& sys,
                                         int batch) {
  BFP_REQUIRE(batch >= 1, "batch_transformer_throughput: batch must be >=1");
  // Per-image latency on ONE unit: rebuild the system model with a single
  // unit so the workload analysis does not spread one image across units.
  SystemConfig one = sys.config();
  one.num_units = 1;
  const AcceleratorSystem single(one);
  const WorkloadBreakdown per_image = analyze_workload(cfg, single);
  const double freq = sys.config().pu.freq_hz;
  const auto image_cycles = static_cast<std::uint64_t>(
      per_image.total_latency_ms * 1e-3 * freq);

  std::vector<WorkItem> items(static_cast<std::size_t>(batch),
                              WorkItem{cfg.name, image_cycles});
  const ScheduleResult s = schedule_lpt(items, sys.config().num_units);

  BatchResult r;
  r.batch = batch;
  r.per_image_cycles = image_cycles;
  r.makespan_cycles = s.makespan;
  r.latency_ms_per_image = static_cast<double>(image_cycles) / freq * 1e3;
  r.images_per_second =
      static_cast<double>(batch) / (static_cast<double>(s.makespan) / freq);
  r.utilization = s.utilization;
  return r;
}

BatchExecution execute_transformer_batch(
    const VitModel& model, const AcceleratorSystem& sys,
    std::span<const std::vector<float>> images, ThreadPool* pool) {
  BFP_REQUIRE(!images.empty(), "execute_transformer_batch: empty batch");
  const VitConfig& cfg = model.config();
  const std::size_t expect = static_cast<std::size_t>(cfg.tokens()) *
                             static_cast<std::size_t>(cfg.embed_dim);
  for (const auto& img : images) {
    BFP_REQUIRE(img.size() == expect,
                "execute_transformer_batch: image must be tokens x embed_dim");
  }

  BatchExecution out;
  const std::size_t n = images.size();
  out.features.resize(n);
  out.image_stats.resize(n);

  // Each image runs whole on one unit, so its functional forward sees a
  // single-unit system (weights resident, no cross-unit traffic).
  SystemConfig one = sys.config();
  one.num_units = 1;

  // ---- parallel phase: one simulated PU per work item ----
  // Work item i owns slot i of features/image_stats and constructs
  // its own AcceleratorSystem (hence its own ProcessingUnit): no shared
  // mutable state between items, so any worker interleaving produces the
  // same bits as the serial loop. The model is shared read-only.
  auto run_image = [&](std::size_t i) {
    const AcceleratorSystem unit(one);
    std::vector<float> x = images[i];
    out.features[i] =
        model.forward_mixed(std::move(x), unit, &out.image_stats[i]);
  };
  if (pool != nullptr) {
    pool->parallel_for(n, run_image);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_image(i);
  }

  // ---- serial reduction phase, fixed index order ----
  std::vector<WorkItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(
        {"img" + std::to_string(i), out.image_stats[i].total_cycles()});
  }
  out.schedule = schedule_lpt(items, sys.config().num_units);

  const double freq = sys.config().pu.freq_hz;
  out.timing.batch = static_cast<int>(n);
  out.timing.per_image_cycles = out.image_stats.front().total_cycles();
  out.timing.makespan_cycles = out.schedule.makespan;
  out.timing.latency_ms_per_image =
      static_cast<double>(out.timing.per_image_cycles) / freq * 1e3;
  out.timing.images_per_second =
      out.schedule.makespan == 0
          ? 0.0
          : static_cast<double>(n) /
                (static_cast<double>(out.schedule.makespan) / freq);
  out.timing.utilization = out.schedule.utilization;

  // ---- per-unit event-driven timelines ----
  // One pass per assigned image: DMA the embeddings in, compute, DMA the
  // features out, double-buffered over the unit's AXI channel pair. Units
  // are independent, so their timelines compute concurrently; each unit's
  // result lands in its own slot (unit order, not completion order).
  const HbmConfig& hbm = sys.config().hbm;
  const std::uint64_t in_bytes = expect * sizeof(float);
  out.unit_timelines.resize(out.schedule.units.size());
  auto run_unit = [&](std::size_t u) {
    const UnitAssignment& ua = out.schedule.units[u];
    std::vector<PassSpec> passes;
    passes.reserve(ua.items.size());
    for (const std::size_t img : ua.items) {
      PassSpec p;
      p.load_cycles = transfer_cycles(hbm, in_bytes, hbm.bfp_burst_bytes);
      p.compute_cycles = out.image_stats[img].total_cycles();
      p.store_cycles = transfer_cycles(
          hbm, out.features[img].size() * sizeof(float), hbm.bfp_burst_bytes);
      passes.push_back(p);
    }
    out.unit_timelines[u] =
        simulate_pipeline(passes, /*double_buffered=*/true);
  };
  if (pool != nullptr) {
    pool->parallel_for(out.unit_timelines.size(), run_unit);
  } else {
    for (std::size_t u = 0; u < out.unit_timelines.size(); ++u) run_unit(u);
  }
  for (const PipelineResult& t : out.unit_timelines) {
    out.io_makespan_cycles =
        std::max(out.io_makespan_cycles, t.total_cycles);
  }

  // ---- deterministic counter aggregation (image-index order) ----
  for (const ForwardStats& s : out.image_stats) {
    out.counters.add("serving.images");
    out.counters.add("serving.bfp_macs", s.bfp_macs);
    out.counters.add("serving.linear_cycles", s.linear_cycles);
    out.counters.add("serving.vector_cycles", s.vector_cycles);
    out.counters.add("serving.host_divs", s.nonlinear_ops.host_div);
  }
  out.counters.add("serving.makespan_cycles", out.schedule.makespan);
  out.counters.add("serving.io_makespan_cycles", out.io_makespan_cycles);
  return out;
}

}  // namespace bfpsim
