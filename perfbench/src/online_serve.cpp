// online-serve: serve_online of the vit-tiny-test model under open-loop
// Poisson traces at a fixed fraction of the modelled 15-unit capacity.
// One operation is one serving episode: the functional phase (one
// forward_mixed per request) on a fixed worker pool, then the serial
// serve_events queue and batcher.
#include <algorithm>
#include <optional>

#include "common/thread_pool.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "fabric/hbm.hpp"
#include "replay.hpp"
#include "serving/event_loop.hpp"

namespace perfbench {
namespace {

using namespace bfpsim;

/// Distinct seeded traces, served round robin; the simulated metrics pool
/// all of them.
constexpr int kTraces = 4;
constexpr int kRequests = 400;
/// Offered load as a fraction of the modelled capacity (units / forward
/// time): high enough that batches fill and the queue holds work.
constexpr double kLoad = 0.9;

class OnlineServe final : public Workload {
 public:
  explicit OnlineServe(int workers) : pool_(workers) {}

  void setup(Spans& spans) override {
    {
      Span s(spans, "compiler.load_model_spec");
      spec_ = load_model_spec("vit-tiny-test");
    }
    cfg_ = vit_config_of(spec_);
    {
      Span s(spans, "transformer.random_weights");
      model_.emplace(random_weights(cfg_, spec_.seed));
    }
    // Probe one forward on a single unit for the modelled service time.
    const AcceleratorSystem unit(unit_config());
    ForwardStats fs;
    {
      Span s(spans, "transformer.forward_mixed");
      (void)model_->forward_mixed(random_embeddings(cfg_, spec_.seed), unit,
                                  &fs);
    }
    probe_cycles_ = fs.total_cycles();
  }

  void make_inputs(std::uint64_t seed) override {
    const double freq = sys_.config().pu.freq_hz;
    const double capacity = sys_.config().num_units * freq /
                            static_cast<double>(probe_cycles_);
    traces_.clear();
    for (int k = 0; k < kTraces; ++k) {
      traces_.push_back(
          poisson_trace(kRequests, kLoad * capacity, sub_seed(seed, k), freq));
    }
    first_.assign(kTraces, std::nullopt);
    json_.assign(kTraces, "");
  }

  int min_ops() const override { return kTraces; }

  bool op(int i, Spans& spans) override {
    const auto k = static_cast<std::size_t>(i % kTraces);
    OnlineServeResult r;
    {
      Span s(spans, "serving.serve_online");
      r = serve_online(*model_, sys_, traces_[k], policy_, &pool_);
    }
    const std::size_t features = static_cast<std::size_t>(cfg_.tokens()) *
                                 static_cast<std::size_t>(cfg_.embed_dim);
    bool ok = r.report.records.size() + r.report.rejected_ids.size() ==
                  static_cast<std::size_t>(kRequests) &&
              r.features.size() == static_cast<std::size_t>(kRequests);
    for (const auto& f : r.features) ok = ok && f.size() == features;
    std::string json = r.report.to_json();
    if (!first_[k]) {
      first_[k] = std::move(r);
      json_[k] = std::move(json);
    } else {
      ok = ok && json == json_[k];
    }
    return ok;
  }

  double units(int /*i*/) const override { return kRequests; }

  std::string digest() const override {
    Digest d;
    for (const std::string& j : json_) d.text(j);
    return d.hex();
  }

  void sim_metrics(MetricMap& out) const override {
    const double freq = sys_.config().pu.freq_hz;
    std::vector<std::uint64_t> latency;
    std::vector<std::uint64_t> service;
    std::size_t completed = 0;
    std::size_t in_slo = 0;
    double span_s = 0.0;
    for (const auto& r : first_) {
      if (!r) continue;
      for (const LatencyRecord& rec : r->report.records) {
        latency.push_back(rec.total_cycles());
        service.push_back(rec.service_cycles());
        if (rec.slo_met) ++in_slo;
      }
      completed += r->report.records.size();
      span_s += static_cast<double>(r->report.makespan_cycles) / freq;
    }
    const double units = sys_.config().num_units;
    out["sim_latency_ms"] = {cycles_ms(nearest_rank(service, 50), freq),
                             "sim_ms"};
    out["sim_p50_ms"] = {cycles_ms(nearest_rank(latency, 50), freq),
                         "sim_ms"};
    out["sim_p99_ms"] = {cycles_ms(nearest_rank(latency, 99), freq),
                         "sim_ms"};
    out["sim_goodput_rps"] = {static_cast<double>(in_slo) / span_s,
                              "1/sim_s"};
    out["sim_admit_frac"] = {static_cast<double>(completed) /
                                 (static_cast<double>(kTraces) * kRequests),
                             "ratio"};
    out["sim_replica_s"] = {units * span_s, "sim_s"};
    out["sim_tokens_per_s"] = {
        static_cast<double>(completed) * cfg_.tokens() / span_s, "1/sim_s"};
  }

  int layer_metrics(Spans& spans, double op_ms, MetricMap& out) override {
    int failures = 0;
    const OnlineServeResult& r0 = *first_[0];
    const ArrivalTrace& t0 = traces_[0];

    // forward_mixed replayed per request of trace 0, single-threaded, on
    // the inputs serve_online derives (embeddings seed = trace seed + id).
    const AcceleratorSystem unit(unit_config());
    std::vector<double> fwd_ms;
    std::vector<double> fwd_cycles;
    for (int id = 0; id < kRequests; ++id) {
      std::vector<float> x = random_embeddings(
          cfg_, t0.seed + static_cast<std::uint64_t>(id));
      ForwardStats fs;
      const Clock::time_point t = Clock::now();
      {
        Span s(spans, "transformer.forward_mixed");
        (void)model_->forward_mixed(std::move(x), unit, &fs);
      }
      fwd_ms.push_back(ms_since(t));
      fwd_cycles.push_back(static_cast<double>(fs.total_cycles()));
      if (fs.total_cycles() != r0.compute_cycles[static_cast<std::size_t>(id)]) {
        ++failures;
      }
    }
    out["transformer.forward_mixed_ms_p50"].value = median(fwd_ms);
    out["transformer.sim_cycles_per_request"].value = median(fwd_cycles);

    // serve_events on its own, fed the same per-request passes: the event
    // loop's share of an episode, timed directly (the episode minus a
    // replayed functional phase is below the noise of either figure).
    const HbmConfig& hbm = sys_.config().hbm;
    const std::uint64_t io = transfer_cycles(
        hbm,
        static_cast<std::uint64_t>(cfg_.tokens()) * cfg_.embed_dim *
            sizeof(float),
        hbm.bfp_burst_bytes);
    BackendSpec backend;
    backend.executors = sys_.config().num_units;
    backend.freq_hz = sys_.config().pu.freq_hz;
    for (const std::uint64_t c : r0.compute_cycles) {
      backend.passes.push_back({io, c, io});
    }
    ServeReport events;
    const Clock::time_point te = Clock::now();
    {
      Span s(spans, "serving.serve_events");
      events = serve_events(backend, t0, policy_);
    }
    out["serving.serve_events_ms"].value = ms_since(te);
    out["serving.serve_online_ms"].value = op_ms;
    if (!same_records(events, r0.report)) ++failures;

    const ServeReport& rep = r0.report;
    double batches = 0.0;
    for (const LatencyRecord& rec : rep.records) {
      batches += 1.0 / rec.batch_size;
    }
    const double freq = sys_.config().pu.freq_hz;
    out["serving.completed"].value = static_cast<double>(rep.records.size());
    out["serving.rejected"].value =
        static_cast<double>(rep.rejected_ids.size());
    out["serving.max_queue_depth"].value =
        static_cast<double>(rep.max_queue_depth);
    out["serving.mean_batch"].value =
        batches > 0.0 ? static_cast<double>(rep.records.size()) / batches
                      : 0.0;
    out["serving.utilization"].value = rep.utilization;
    out["serving.queue_wait_p99_ms"].value =
        cycles_ms(rep.queue_wait.p99, freq);

    // The GEMM kernels at this model's shapes: its compiled program's
    // matmuls replayed (the same gemm calls forward_mixed makes).
    CompileOptions opt;
    opt.macro_kernels = true;
    const CompiledModel tiny = compile(build_fused_spec_graph(spec_), unit, opt);
    const ReplayResult rp = replay_program(tiny, unit, 7, spans);
    const FamilyStats& mm = rp.families.at("matmul");
    out["numerics.gemm_macs"].value =
        static_cast<double>(rep.counters.get("serve.bfp_macs"));
    out["numerics.gemm_gmac_per_host_s"].value =
        static_cast<double>(mm.macs) / (mm.host_ms * 1e-3) / 1e9;
    return failures;
  }

  std::vector<std::string> notes() const override {
    return {"vit-tiny-test: " + std::to_string(kTraces) + " traces x " +
            std::to_string(kRequests) + " requests at " +
            std::to_string(kLoad) + " of capacity, " +
            std::to_string(pool_.size()) + " worker(s)"};
  }

 private:
  SystemConfig unit_config() const {
    SystemConfig one = sys_.config();
    one.num_units = 1;
    return one;
  }

  static bool same_records(const ServeReport& a, const ServeReport& b) {
    if (a.records.size() != b.records.size() ||
        a.rejected_ids != b.rejected_ids) {
      return false;
    }
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      const LatencyRecord& x = a.records[i];
      const LatencyRecord& y = b.records[i];
      if (x.id != y.id || x.arrival_cycle != y.arrival_cycle ||
          x.dispatch_cycle != y.dispatch_cycle ||
          x.complete_cycle != y.complete_cycle || x.unit != y.unit ||
          x.batch_size != y.batch_size) {
        return false;
      }
    }
    return true;
  }

  AcceleratorSystem sys_;
  ThreadPool pool_;
  ServePolicy policy_;
  ModelSpec spec_;
  VitConfig cfg_;
  std::optional<VitModel> model_;
  std::uint64_t probe_cycles_ = 0;
  std::vector<ArrivalTrace> traces_;
  std::vector<std::optional<OnlineServeResult>> first_;
  std::vector<std::string> json_;
};

}  // namespace

std::unique_ptr<Workload> make_online_serve(int workers) {
  return std::make_unique<OnlineServe>(
      workers > 0 ? workers : std::min(4, ThreadPool::hardware_threads()));
}

}  // namespace perfbench
