// System-level serving bench: batch throughput across the 15 independent
// units (Section III-A: parallel units "running with independent
// instructions"), plus a functional batch execution on the parallel
// engine. Both serve the batch as a cycle-0 burst through serve_events,
// each image alone on the lowest free unit.
//
// Usage: bench_batch_serving [--threads N]
//   N > 1 runs the functional section on an N-worker thread pool;
//   N == 0 uses the host's hardware concurrency. Modelled cycles and all
//   output bits are identical for every N (see ARCHITECTURE.md, threading
//   model); only host wall-clock changes.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "compiler/partition.hpp"
#include "runtime/session.hpp"
#include "serving/event_loop.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0] << " [--threads N]\n";
      return 2;
    }
  }
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  const AcceleratorSystem sys;

  std::cout << "BATCH SERVING on " << sys.config().num_units
            << " independent units\n\n";

  const double freq = sys.config().pu.freq_hz;
  // One image on ONE unit: the program compiled for a single-unit system,
  // less its DMA moves — what Session::infer_batch charges per image.
  SystemConfig one = sys.config();
  one.num_units = 1;
  const AcceleratorSystem single(one);
  for (const VitConfig& cfg : {deit_tiny(), deit_small()}) {
    const ExecutionStats price = compile_vit(cfg, single).price();
    const std::uint64_t image_cycles =
        price.device_cycles - price.move_cycles;
    std::cout << cfg.name << " (per-image latency "
              << fmt_double(static_cast<double>(image_cycles) / freq * 1e3,
                            2)
              << " ms on one unit):\n\n";
    TextTable t({"batch", "makespan (ms)", "images/s", "utilization"});
    for (int batch : {1, 4, 8, 15, 16, 30, 60}) {
      // The batch arrives at once; each image runs alone on the lowest
      // free unit.
      BackendSpec units;
      units.executors = sys.config().num_units;
      units.freq_hz = freq;
      units.passes.assign(static_cast<std::size_t>(batch),
                          {0, image_cycles, 0});
      const ServeReport r = serve_events(
          units, batch_trace(batch, freq),
          {.queue_capacity = static_cast<std::size_t>(batch),
           .max_batch = 1});
      t.add_row({std::to_string(batch),
                 fmt_double(
                     static_cast<double>(r.makespan_cycles) / freq * 1e3, 2),
                 fmt_double(r.completed_rps, 1),
                 fmt_percent(100.0 * r.utilization, 1)});
    }
    std::cout << t << "\n";
  }
  std::cout << "Throughput scales linearly to the unit count, then in "
               "whole rounds — the\nexpected profile for whole-image-"
               "per-unit placement (weights stay resident,\nno cross-unit "
               "traffic).\n\n";

  // Functional batch execution on the parallel engine: every image really
  // flows through the bfp8/fp32 forward. Modelled cycles are engine-
  // invariant; wall-clock shows the host-side speedup from --threads.
  const VitConfig fcfg = vit_test_tiny();
  Session session;
  const ModelId model = session.deploy(random_weights(fcfg, 42));
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 16; ++i) {
    images.push_back(random_embeddings(fcfg, 1000 + i));
  }
  ThreadPool pool(threads);
  std::cout << "FUNCTIONAL batch execution (" << fcfg.name << ", batch "
            << images.size() << ", " << pool.size() << " host thread"
            << (pool.size() == 1 ? "" : "s") << "):\n\n";
  const auto t0 = std::chrono::steady_clock::now();
  const Session::BatchInference b = session.infer_batch(model, images, &pool);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::uint64_t bfp_macs = 0;
  for (const InferenceResult& r : b.results) bfp_macs += r.stats.bfp_macs;
  std::cout << "  modelled makespan      "
            << fmt_double(static_cast<double>(b.makespan_cycles) /
                              sys.config().pu.freq_hz * 1e3,
                          3)
            << " ms (" << b.makespan_cycles << " cycles)\n"
            << "  modelled images/s      "
            << fmt_double(b.images_per_second, 1) << "\n"
            << "  unit utilization       "
            << fmt_percent(100.0 * b.utilization, 1) << "\n"
            << "  host wall-clock        " << fmt_double(wall_ms, 1)
            << " ms (simulation cost, not modelled time)\n"
            << "  bfp MACs simulated     " << bfp_macs << "\n";
  std::cout << "\nModelled numbers above are bit-identical for any "
               "--threads value;\nonly the host wall-clock line changes.\n";
  return 0;
}
