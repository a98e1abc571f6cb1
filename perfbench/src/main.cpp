// perfbench — one benchmark for bfpsim.
//
// Runs one named workload through the simulator's public API in this
// process, checks its outputs, and prints every metric it measured. The
// last line of standard output is the result object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) measure half the time untraced and half with spans on,
// replay single layers, and report the per-layer metrics of the layers the
// workload runs, plus the tracing overhead; they also write a Chrome trace
// and a per-layer self-time rollup into --trace-dir. Per-layer values
// carry no unit here: BENCHMARK.json holds the metric catalog, and
// perfbench/run.py fits the result to it.
//
// Host metrics time the simulator on this machine; sim metrics are what
// the modelled FPGA would take, exact for a fixed seed (units sim_ms,
// sim_s, 1/sim_s).
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--workers N] [--expect-digest HEX] [--trace-dir DIR]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Set-up runs kSetupReps times before the operations. Untraced runs also
/// repeat it in the gaps between operations, at most once per gap and for
/// at most kSetupShare of the loop's time. setup_s cuts the run's set-ups,
/// in time order, into kSetupGroups groups and reports the median of the
/// groups' means. On a shared host speed flips between phases up to half
/// apart every second or so; one set-up of milliseconds sees one phase, so
/// a median over single set-ups jumps between phases from run to run. A
/// group spans a fifth of the run and averages them, as an operation of
/// hundreds of milliseconds does, and the median drops a group a stall hit.
constexpr int kSetupReps = 3;
constexpr double kSetupShare = 0.12;
constexpr std::size_t kSetupGroups = 5;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

struct OpStats {
  std::vector<double> ms;
  int failed = 0;
  double units = 0.0;
};

/// Run operations back to back until `seconds` have passed and at least
/// `min_ops` ran; ids continue from `first_id`. Operation i runs on the
/// i-th CPU in turn (see pin_to_cpu). `gap`, when given, runs after each
/// operation with the loop's elapsed seconds.
OpStats run_ops(Workload& w, Spans& spans, double seconds, int first_id,
                int min_ops,
                const std::function<void(double)>& gap = nullptr) {
  OpStats s;
  const Clock::time_point start = Clock::now();
  for (int i = first_id;; ++i) {
    const int done = i - first_id;
    if (done >= min_ops && ms_since(start) >= seconds * 1e3) break;
    spans.set_op(i);
    pin_to_cpu(i);
    bool ok = false;
    const Clock::time_point t0 = Clock::now();
    try {
      Span sp(spans, "bench.op");
      ok = w.op(i, spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "operation %d threw: %s\n", i, e.what());
    }
    s.ms.push_back(ms_since(t0));
    if (!ok) {
      std::fprintf(stderr, "operation %d failed its output check\n", i);
      ++s.failed;
    }
    s.units += w.units(i);
    if (gap) gap(ms_since(start) / 1e3);
  }
  spans.set_op(-1);
  return s;
}

/// setup_s from the run's set-up times, in time order (see kSetupGroups).
double setup_estimate(const std::vector<double>& setup_s) {
  const std::size_t n = setup_s.size();
  const std::size_t groups = std::min(kSetupGroups, n);
  std::vector<double> means;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * n / groups;
    const std::size_t hi = (g + 1) * n / groups;
    means.push_back(std::accumulate(setup_s.begin() + lo,
                                    setup_s.begin() + hi, 0.0) /
                    static_cast<double>(hi - lo));
  }
  return median(means);
}

/// Seconds one set-up takes.
double time_setup(Workload& w, Spans& spans) {
  const Clock::time_point t0 = Clock::now();
  {
    Span s(spans, "bench.setup");
    w.setup(spans);
  }
  return ms_since(t0) / 1e3;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload deit-forward|online-serve|"
               "fleet-day|decode-paged --seed N --seconds S --trace 0|1\n"
               "                 [--workers N] [--expect-digest HEX] "
               "[--trace-dir DIR]\n");
  return 2;
}

int run(const RunConfig& cfg) {
  std::unique_ptr<Workload> w;
  if (cfg.workload == "deit-forward") {
    w = make_deit_forward();
  } else if (cfg.workload == "online-serve") {
    w = make_online_serve(cfg.workers);
  } else if (cfg.workload == "fleet-day") {
    w = make_fleet_day();
  } else if (cfg.workload == "decode-paged") {
    w = make_decode_paged();
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return usage();
  }

  Spans spans;
  spans.set_enabled(cfg.trace);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    setup_s.push_back(time_setup(*w, spans));
  }
  const Clock::time_point tg = Clock::now();
  {
    Span s(spans, "bench.trace_gen");
    w->make_inputs(cfg.seed);
  }
  const double trace_gen_ms = ms_since(tg);
  w->prepare_checks();
  // From here on the peak covers the operations, not set-up or the checks'
  // reference models.
  const bool rss_scoped = reset_peak_rss();

  // One untimed warm-up operation lets caches, worker scratch arenas and
  // lazy set-up settle; its output checks still count.
  const bool traced_setup = spans.enabled();
  spans.set_enabled(false);
  const OpStats warm = run_ops(*w, spans, 0.0, 0, 1);
  spans.set_enabled(traced_setup);

  MetricMap metrics;
  std::vector<std::string> sim_names;
  int attempted = 1;
  int failed = warm.failed;
  Tail tail;
  if (!cfg.trace) {
    // Set-up is deterministic, so the state a repeat rebuilds serves the
    // next operations as the first set-up's did (their checks prove it).
    // Each repeat's own memory is kept out of the operations' peak.
    double gap_setup_s = 0.0;
    double peak_mb = 0.0;
    const auto resetup = [&](double elapsed_s) {
      if (gap_setup_s > kSetupShare * elapsed_s) return;
      peak_mb = std::max(peak_mb, peak_rss_mb());
      setup_s.push_back(time_setup(*w, spans));
      gap_setup_s += setup_s.back();
      reset_peak_rss();
    };
    const OpStats ops =
        run_ops(*w, spans, cfg.seconds, 1, w->min_ops(), resetup);
    metrics["peak_rss_mb"] = {std::max(peak_mb, peak_rss_mb()), "MiB"};
    attempted += static_cast<int>(ops.ms.size());
    failed += ops.failed;
    double total_ms = 0.0;
    for (const double m : ops.ms) total_ms += m;
    tail = tail_of(ops.ms);
    metrics["setup_s"] = {setup_estimate(setup_s), "s"};
    metrics["host_ms_p50"] = {median(ops.ms), "ms"};
    metrics["host_ms_tail"] = {tail.value, "ms"};
    metrics["sim_units_per_host_s"] = {ops.units / (total_ms / 1e3), "1/s"};
    MetricMap sim;
    w->sim_metrics(sim);
    for (const auto& [name, m] : sim) {
      sim_names.push_back(name);
      metrics[name] = m;
    }
  } else {
    spans.set_enabled(false);
    const OpStats plain =
        run_ops(*w, spans, cfg.seconds / 2, 1, w->min_ops());
    spans.set_enabled(true);
    const int next = 1 + static_cast<int>(plain.ms.size());
    const OpStats traced =
        run_ops(*w, spans, cfg.seconds / 2, next, w->min_ops());
    attempted += static_cast<int>(plain.ms.size() + traced.ms.size());
    failed += plain.failed + traced.failed;
    const int replay_failures =
        w->layer_metrics(spans, median(traced.ms), metrics);
    if (replay_failures > 0) {
      std::fprintf(stderr, "%d replay cross-check(s) failed\n",
                   replay_failures);
      failed += replay_failures;
      attempted += replay_failures;
    }
    metrics["bench.trace_gen_ms"].value = trace_gen_ms;
    metrics["bench.trace_overhead_ms"].value =
        median(traced.ms) - median(plain.ms);
    std::printf("tracing overhead: %.6g ms per operation (traced p50 %.6g "
                "ms, untraced p50 %.6g ms)\n",
                median(traced.ms) - median(plain.ms), median(traced.ms),
                median(plain.ms));

    std::filesystem::create_directories(cfg.trace_dir);
    const std::string stem = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed);
    std::ofstream(stem + ".trace.json") << spans.chrome_json();
    std::ofstream(stem + ".rollup.json") << spans.rollup_json();
    std::printf("trace: %s.trace.json (%zu spans), rollup: %s.rollup.json\n",
                stem.c_str(), spans.records().size(), stem.c_str());
  }

  const std::string digest = w->digest();
  const bool digest_ok =
      cfg.expect_digest.empty() || cfg.expect_digest == digest;
  if (!digest_ok) {
    std::fprintf(stderr, "digest %s does not match the pinned %s\n",
                 digest.c_str(), cfg.expect_digest.c_str());
    failed = std::min(attempted, failed + 1);
  }
  if (!cfg.trace) {
    metrics["ok_frac"] = {
        static_cast<double>(attempted - failed) / attempted, "ratio"};
  }
  bool finite = true;
  for (const auto& [name, m] : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = failed == 0 && digest_ok && finite;

  for (const std::string& note : w->notes()) std::printf("%s\n", note.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("  %-38s %22.10g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!cfg.trace) {
    std::printf("  host_ms_tail is p%g of n=%zu operations%s\n",
                tail.percentile, tail.n,
                tail.rule_met ? "" : " (fewer than 20: maximum reported)");
    std::printf("  peak_rss_mb covers %s\n",
                rss_scoped ? "the operations only"
                           : "the whole process (peak reset refused)");
  }

  std::string info = "{\"workload\":" + quote(cfg.workload) +
                     ",\"seed\":" + std::to_string(cfg.seed) +
                     ",\"trace\":" + (cfg.trace ? "1" : "0") +
                     ",\"digest\":" + quote(digest) +
                     ",\"digest_checked\":" +
                     (cfg.expect_digest.empty() ? "false" : "true") +
                     ",\"tail_percentile\":" + num(tail.percentile) +
                     ",\"tail_n\":" + std::to_string(tail.n) +
                     ",\"setup_reps\":" + std::to_string(setup_s.size()) +
                     ",\"peak_rss_scoped\":" + (rss_scoped ? "true" : "false") +
                     ",\"sim_metrics\":[";
  for (std::size_t i = 0; i < sim_names.size(); ++i) {
    info += (i == 0 ? "" : ",") + quote(sim_names[i]);
  }
  info += "]}";
  std::printf("perfbench-info %s\n", info.c_str());

  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ",") + quote(name) + ":{\"value\":" +
           num(std::isfinite(m.value) ? m.value : 0.0) +
           ",\"unit\":" + quote(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.trace_dir = ".bench_build/perfbench-traces";
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && cfg.seconds > 0.0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else if (a == "--workers") {
      cfg.workers = std::atoi(v.c_str());
    } else if (a == "--expect-digest") {
      cfg.expect_digest = v;
    } else if (a == "--trace-dir") {
      cfg.trace_dir = v;
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || !have_seed || !have_seconds) return usage();
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
