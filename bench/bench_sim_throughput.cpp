// Simulator raw-speed bench: how many *simulated* PU cycles the functional
// model chews through per wall-clock second, across the kernel tiers and
// across GEMM shapes, plus an end-to-end online-serving slice. This is the
// committed throughput trajectory for the vectorized bfp8 kernels: every
// point also asserts bit-exactness against bfp_gemm_reference, so a faster
// number can never be bought with a different bit.
//
// Metric: cycles_per_wall_sec = modelled compute cycles of the workload
// (ProcessingUnit::gemm_cycles) * reps / wall seconds. Raw values are
// host-dependent; the *ratio* between a tier and the in-process reference
// (speedup_vs_reference) is not, so the regression gate compares ratios:
//   --baseline FILE [--tolerance T]   fail (exit 1) if any point's
//       speedup_vs_reference fell more than T (default 0.20) below the
//       committed baseline's — i.e. the cycles-per-second trajectory
//       regressed >20% after normalizing out host speed.
//   --check-speedup X   fail unless the best tier reaches X times the
//       reference on the largest GEMM shape (the issue's >= 5x bar).
//
// The GEMM points run single-threaded, so a ratio measures the kernel and
// not worker wake-ups: a smoke-sized simd rep lasts about 0.1 ms, where
// handing tiles to a pool's workers swung the ratio ~2x between runs.
// --threads sizes the pool of the golden GEMM and the serving slice.
//
// Usage: bench_sim_throughput [--smoke] [--threads N] [--json-out FILE]
//                             [--baseline FILE] [--tolerance T]
//                             [--check-speedup X] [--seed S]
// JSON to stdout (or --json-out); human summary to stderr.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "numerics/bfp.hpp"
#include "numerics/bfp_kernel.hpp"
#include "pu/processing_unit.hpp"
#include "serving/event_loop.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Shape {
  int m, k, n;
  std::string str() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  }
};

/// Pull the number right after `"key":` in the object that contains
/// `anchor` (first occurrence). Returns false if absent — good enough to
/// read our own committed JSON back without a parser dependency.
bool find_json_number(const std::string& doc, const std::string& anchor,
                      const std::string& key, double* out) {
  const std::size_t at = doc.find(anchor);
  if (at == std::string::npos) return false;
  const std::size_t kat = doc.find("\"" + key + "\":", at);
  if (kat == std::string::npos) return false;
  *out = std::atof(doc.c_str() + kat + key.size() + 3);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bfpsim;
  bool smoke = false;
  int threads = 0;
  std::uint64_t seed = 1;
  std::string json_path, baseline_path;
  double tolerance = 0.20;
  double check_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (a == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--json-out" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (a == "--tolerance" && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (a == "--check-speedup" && i + 1 < argc) {
      check_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--seed S] "
                   "[--json-out FILE] [--baseline FILE] [--tolerance T] "
                   "[--check-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  const PuConfig pu_cfg;
  const BfpFormat fmt = bfp8_format();
  const int psu_bits = pu_cfg.psu_bits;

  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{64, 64, 64}, {128, 128, 128}}
            : std::vector<Shape>{
                  {64, 64, 64}, {128, 128, 128}, {197, 192, 192},
                  {256, 512, 256}};
  // "reference" is bfp_gemm_reference itself (the pre-PR functional path);
  // the tiers run through bfp_gemm_dispatch.
  struct Variant {
    std::string name;
    bool is_reference;
    KernelTier tier;
  };
  std::vector<Variant> variants{{"reference", true, KernelTier::kScalar}};
  for (const KernelTier t : available_kernel_tiers()) {
    variants.push_back({to_string(t), false, t});
  }

  std::ostringstream json;
  json << "{\"bench\":\"sim_throughput\",\"threads\":" << pool.size()
       << ",\"smoke\":" << (smoke ? "true" : "false")
       << ",\"best_tier\":\"" << to_string(best_kernel_tier())
       << "\",\"points\":[";
  std::fprintf(stderr,
               "simulator throughput: %zu shapes x %zu variants, %d worker "
               "threads, best tier %s\n",
               shapes.size(), variants.size(), pool.size(),
               to_string(best_kernel_tier()));

  std::string baseline;
  if (!baseline_path.empty()) {
    std::ifstream is(baseline_path);
    if (!is) {
      std::fprintf(stderr, "error: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    baseline = ss.str();
  }

  bool gate_failed = false;
  double largest_best_speedup = 0.0;
  bool first = true;
  for (const Shape& s : shapes) {
    Rng rng(seed + static_cast<std::uint64_t>(s.m * 131 + s.n));
    const std::vector<float> a =
        rng.uniform_vec(static_cast<std::size_t>(s.m * s.k), -2.0f, 2.0f);
    const std::vector<float> b =
        rng.uniform_vec(static_cast<std::size_t>(s.k * s.n), -2.0f, 2.0f);
    // Quantization is outside the timed region: the bench measures the
    // tile-product datapath, not the quantizer.
    const BfpMatrix am =
        quantize_matrix(a, s.m, s.k, fmt, RoundMode::kNearestEven);
    const BfpMatrix bm =
        quantize_matrix(b, s.k, s.n, fmt, RoundMode::kNearestEven);
    const std::uint64_t sim_cycles =
        ProcessingUnit::gemm_cycles(pu_cfg, s.m, s.k, s.n);
    const std::vector<float> golden =
        bfp_gemm_reference(am, bm, s.m, s.n, psu_bits, &pool);

    auto run_once = [&](const Variant& v) {
      return v.is_reference
                 ? bfp_gemm_reference(am, bm, s.m, s.n, psu_bits)
                 : bfp_gemm_dispatch(am, bm, s.m, s.n, psu_bits, v.tier);
    };
    // Per variant: the exactness probe, then the rep count and the fastest
    // chunk's wall time per rep.
    struct Timing {
      bool exact = false;
      int reps = 0;
      int chunk_reps = 0;
      int done = 0;
      double wall_per_rep = 0.0;
    };
    std::vector<Timing> timings(variants.size());
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      const Variant& v = variants[vi];
      Timing& t = timings[vi];
      const std::vector<float> probe = run_once(v);  // warm + exactness
      t.exact = probe.size() == golden.size() &&
                std::memcmp(probe.data(), golden.data(),
                            probe.size() * sizeof(float)) == 0;
      if (!t.exact) {
        std::fprintf(stderr, "BIT-EXACTNESS FAILURE: %s %s\n",
                     s.str().c_str(), v.name.c_str());
        gate_failed = true;
      }
      // Self-scale reps: aim for ~0.5s per point (smoke too) based on a
      // single probe of this variant, in 20 chunks. Fewer or shorter
      // chunks (5 over 0.2s) let a slow stretch of the host move the
      // minimum, and with it a ratio, by more than the 20% gate.
      const Clock::time_point p0 = Clock::now();
      (void)run_once(v);
      const double probe_s = seconds_since(p0);
      constexpr double kTargetS = 0.5;
      t.reps = static_cast<int>(kTargetS / (probe_s > 1e-9 ? probe_s : 1e-9));
      if (t.reps < 3) t.reps = 3;
      if (t.reps > 2000) t.reps = 2000;
      constexpr int kChunks = 20;
      t.chunk_reps = t.reps < kChunks ? 1 : t.reps / kChunks;
    }

    // Take the fastest of several timing chunks rather than one mean:
    // scheduler/frequency noise only ever adds time, so the minimum is
    // the stable estimator. The chunks of all variants interleave — one
    // chunk of each in turn — so a slow stretch of the host hits the
    // reference and the tiers alike instead of skewing their ratio.
    for (bool pending = true; pending;) {
      pending = false;
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        Timing& t = timings[vi];
        if (t.done >= t.reps) continue;
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < t.chunk_reps; ++r) (void)run_once(variants[vi]);
        const double chunk = seconds_since(t0) / t.chunk_reps;
        if (t.wall_per_rep == 0.0 || chunk < t.wall_per_rep) {
          t.wall_per_rep = chunk;
        }
        t.done += t.chunk_reps;
        pending = pending || t.done < t.reps;
      }
    }

    const double ref_wall_per_rep = timings.front().wall_per_rep;
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      const Variant& v = variants[vi];
      const Timing& t = timings[vi];
      const double wall_per_rep = t.wall_per_rep;
      const double speedup =
          v.is_reference ? 1.0 : ref_wall_per_rep / wall_per_rep;
      const double cps = static_cast<double>(sim_cycles) / wall_per_rep;
      if (!v.is_reference && v.tier == best_kernel_tier() &&
          (&s == &shapes.back())) {
        largest_best_speedup = speedup;
      }

      if (!first) json << ",";
      first = false;
      const std::string anchor =
          "\"shape\":\"" + s.str() + "\",\"variant\":\"" + v.name + "\"";
      json << "{" << anchor << ",\"sim_cycles_per_rep\":" << sim_cycles
           << ",\"reps\":" << t.reps << ",\"wall_ms_per_rep\":"
           << 1e3 * wall_per_rep << ",\"cycles_per_wall_sec\":" << cps
           << ",\"speedup_vs_reference\":" << speedup
           << ",\"bit_exact\":" << (t.exact ? "true" : "false") << "}";
      std::fprintf(stderr,
                   "  gemm %-12s %-9s %8.3f ms/rep  %.3e sim-cycles/s  "
                   "speedup %5.2fx\n",
                   s.str().c_str(), v.name.c_str(), 1e3 * wall_per_rep, cps,
                   speedup);

      if (!baseline.empty() && !v.is_reference) {
        double base_speedup = 0.0;
        if (find_json_number(baseline, anchor, "speedup_vs_reference",
                             &base_speedup) &&
            speedup < base_speedup * (1.0 - tolerance)) {
          std::fprintf(stderr,
                       "REGRESSION: %s %s speedup %.2fx < baseline %.2fx "
                       "- %.0f%%\n",
                       s.str().c_str(), v.name.c_str(), speedup, base_speedup,
                       100.0 * tolerance);
          gate_failed = true;
        }
      }
    }
  }

  // End-to-end serving slice: the whole stack (quantize + kernels + event
  // loop) at the active tier, measured as makespan sim-cycles per wall
  // second.
  {
    const VitConfig cfg = vit_test_tiny();
    const VitModel model{random_weights(cfg, 42)};
    const AcceleratorSystem sys;
    const double freq = sys.config().pu.freq_hz;
    const int requests = smoke ? 8 : 48;
    ServePolicy policy;
    policy.queue_capacity = 32;
    policy.max_batch = 4;
    const ArrivalTrace trace =
        poisson_trace(requests, 2000.0, seed, freq);
    const Clock::time_point t0 = Clock::now();
    const OnlineServeResult r = serve_online(model, sys, trace, policy, &pool);
    const double wall = seconds_since(t0);
    const double cps = static_cast<double>(r.report.makespan_cycles) / wall;
    json << "],\"serve\":{\"requests\":" << requests
         << ",\"wall_ms\":" << 1e3 * wall
         << ",\"makespan_cycles\":" << r.report.makespan_cycles
         << ",\"completed\":" << r.report.records.size()
         << ",\"cycles_per_wall_sec\":" << cps << "}}";
    std::fprintf(stderr,
                 "  serve %d requests: %.1f ms wall, %.3e sim-cycles/s\n",
                 requests, 1e3 * wall, cps);
  }

  if (check_speedup > 0.0 && largest_best_speedup < check_speedup) {
    std::fprintf(stderr,
                 "SPEEDUP GATE: best tier reached %.2fx on the largest "
                 "shape, need %.2fx\n",
                 largest_best_speedup, check_speedup);
    gate_failed = true;
  }

  if (json_path.empty()) {
    std::printf("%s\n", json.str().c_str());
  } else {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    os << json.str() << "\n";
    std::fprintf(stderr, "json written to %s\n", json_path.c_str());
  }
  return gate_failed ? 1 : 0;
}
