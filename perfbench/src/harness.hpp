// Shared plumbing of the perfbench program: the run configuration, in-memory
// spans, statistics, digests and the workload interface every workload
// file implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
double ms_since(Clock::time_point t0);

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int workers = 0;  ///< online-serve pool size; 0 = min(4, hardware threads)
  std::string expect_digest;  ///< pinned output digest ("" = no pin)
  std::string trace_dir;      ///< where a traced run writes its files
};

/// Spans recorded in memory from the benchmark's own files, around each
/// call into a layer's public functions. Each span has a name, a start,
/// an end, its parent (the enclosing open span) and the operation id it
/// belongs to. A disabled recorder costs one branch per span.
class Spans {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< index into records(), -1 for a root
    int op = -1;      ///< operation id, -1 outside the operation loop
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Operation id stamped on spans opened from now on.
  void set_op(int op) { op_ = op; }

  int begin(const char* name);
  void end(int id);

  const std::vector<Record>& records() const { return records_; }

  /// Durations in ms of every closed span called `name`, in record order.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Chrome trace_event document of "X" (complete) events.
  std::string chrome_json() const;
  /// Per-name rollup: count, total and self time (total minus the part
  /// covered by child spans), sorted by name.
  std::string rollup_json() const;

 private:
  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
  int op_ = -1;
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  Span(Spans& spans, const char* name)
      : spans_(spans), id_(spans.enabled() ? spans.begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) spans_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// The highest percentile of a host-time sample with at least ten samples
/// beyond it, from the ladder 99.9/99/95/90/75/50 by nearest rank. Below
/// 20 samples no rung qualifies: the maximum is reported as percentile 100
/// with `rule_met` false.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t n = 0;
  bool rule_met = false;
};
Tail tail_of(std::vector<double> v);

/// Nearest-rank percentile (element ceil(p/100 * n)) of a cycle sample.
std::uint64_t nearest_rank(std::vector<std::uint64_t> v, double p);

/// FNV-1a 64-bit digest accumulator.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t n);
  Digest& text(const std::string& s) { return bytes(s.data(), s.size()); }
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& floats(const std::vector<float>& v) {
    return bytes(v.data(), v.size() * sizeof(float));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Pin the calling thread to the (i mod n)-th of the n CPUs it may run on.
/// On a shared host, vCPUs run at persistently different speeds (one core
/// up to a fifth slower than another), so a thread that stays where the
/// scheduler put it carries its CPU's speed into the whole run; rotating
/// operations over every CPU gives each run the same mix. Threads created
/// earlier keep their own affinity.
void pin_to_cpu(int i);

/// Reset the process's peak-RSS mark to its current RSS, so that
/// peak_rss_mb() covers only what runs afterwards. False when the kernel
/// does not allow it (the peak then covers the whole process).
bool reset_peak_rss();
/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Mix a run seed with a stream index into an independent sub-seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Simulated milliseconds of `cycles` at `freq_hz`.
inline double cycles_ms(std::uint64_t cycles, double freq_hz) {
  return static_cast<double>(cycles) / freq_hz * 1e3;
}

/// A workload as main() sees it. main() times setup() several
/// times, times make_inputs() once, then calls op(i) back to back, with
/// more timed setup() calls in some of the gaps; every op checks its own
/// outputs and returns false (or throws) on a mismatch.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Spec load, weights, compile, probes: everything before the first
  /// operation that the seed's inputs do not change. Safe to repeat at any
  /// point: a repeat rebuilds the same state.
  virtual void setup(Spans& spans) = 0;
  /// Generate the seeded inputs (timed as bench.trace_gen_ms).
  virtual void make_inputs(std::uint64_t seed) = 0;
  /// Reference outputs for seed-independent cross-checks, computed after
  /// make_inputs() and outside every timing.
  virtual void prepare_checks() {}
  /// Operations a run needs before its digest and simulated metrics are
  /// complete (each distinct input once).
  virtual int min_ops() const = 0;
  /// One operation. Returns false when a correctness check fails.
  virtual bool op(int i, Spans& spans) = 0;
  /// Simulated units (forwards, requests or tokens) of operation i.
  virtual double units(int i) const = 0;
  /// Digest of the simulated outputs of the min_ops() distinct inputs.
  virtual std::string digest() const = 0;
  /// Simulated end-to-end metrics (exact for a fixed seed).
  virtual void sim_metrics(MetricMap& out) const = 0;
  /// Traced-run extras: replays and per-layer metrics, given the median
  /// host ms of a traced operation. Returns the number of failed replay
  /// cross-checks.
  virtual int layer_metrics(Spans& spans, double op_ms, MetricMap& out) = 0;
  /// Human-readable context printed before the result.
  virtual std::vector<std::string> notes() const { return {}; }
};

std::unique_ptr<Workload> make_deit_forward();
/// `workers` sizes the functional-phase pool (0 = min(4, hardware)).
std::unique_ptr<Workload> make_online_serve(int workers);
std::unique_ptr<Workload> make_fleet_day();
std::unique_ptr<Workload> make_decode_paged();

}  // namespace perfbench
