// fleet-day: serve_fleet over a seeded diurnal trace with three tenants
// (tiers 0/1/2) and the autoscaler on. Every request is priced by one
// probed ClusterExecutor pass, as bench_fleet_capacity does, so the
// virtual-time loop, admission, router and autoscaler do all the host
// work. The day is long enough for thousands of spawn/retire events.
#include <optional>

#include "cluster/cluster_executor.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "fleet/fleet_loop.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace bfpsim;

constexpr int kRequests = 150000;
/// Peak arrival rate in replicas' worth of capacity, and the trough at a
/// sixth of it; the period fits hundreds of days into the trace.
constexpr double kPeakReplicas = 8.0;
constexpr double kPeakLoad = 0.85;
constexpr double kPeriodS = 12e-3;
constexpr int kMaxReplicas = 12;

class FleetDay final : public Workload {
 public:
  FleetDay() {
    tenants_.tenants = {{"gold", 0, 1.0, 0.0},
                        {"silver", 1, 2.0, 0.0},
                        {"bronze", 2, 3.0, 0.0}};
    policy_.queue_capacity = 64;
    policy_.max_batch = 4;
    policy_.slo_ms = 5.0;
  }

  void setup(Spans& spans) override {
    {
      Span s(spans, "compiler.load_model_spec");
      spec_ = load_model_spec("vit-tiny-test");
    }
    cfg_ = vit_config_of(spec_);
    VitWeights weights;
    {
      Span s(spans, "transformer.random_weights");
      weights = random_weights(cfg_, spec_.seed);
    }
    std::optional<ClusterExecutor> exec;
    {
      Span s(spans, "cluster.ClusterExecutor");
      exec.emplace(weights, ClusterTopology::ring(1, {}, card_),
                   PartitionStrategy::kPipeline);
    }
    // The replica cost model is content-independent: one probe prices
    // every request.
    ClusterStats stats;
    const Clock::time_point t0 = Clock::now();
    {
      Span s(spans, "cluster.ClusterExecutor::forward");
      (void)exec->forward(random_embeddings(cfg_, spec_.seed), &stats);
    }
    probe_ms_.push_back(ms_since(t0));
    request_cycles_ = stats.total_cycles();
  }

  void make_inputs(std::uint64_t seed) override {
    const double freq = card_.pu.freq_hz;
    const double replica_rps = freq / static_cast<double>(request_cycles_);
    const double peak = kPeakLoad * kPeakReplicas * replica_rps;
    trace_ = diurnal_trace(kRequests, peak / 6.0, peak, kPeriodS,
                           sub_seed(seed, 0), freq);
    assign_tenants(&trace_, tenants_);

    ReplicaClassSpec cls;
    cls.name = "1xpipeline";
    cls.cards = 1;
    cls.strategy = "pipeline";
    cls.passes.assign(static_cast<std::size_t>(kRequests),
                      PassSpec{0, request_cycles_, 0});
    cls.initial_replicas = 1;
    cls.max_replicas = kMaxReplicas;
    fleet_ = FleetSpec{};
    fleet_.freq_hz = freq;
    fleet_.classes = {cls};
    fleet_.tenants = tenants_;
    AutoscalerPolicy& a = fleet_.autoscaler;
    a.enabled = true;
    a.interval_cycles = static_cast<std::uint64_t>(0.5e-3 * freq);
    a.cold_start_cycles = static_cast<std::uint64_t>(1e-3 * freq);
    a.cooldown_cycles = a.interval_cycles;
    a.up_queue_per_replica = 3.0;
    a.down_headroom = 0.5;
    a.scale_step = 1;
    a.min_replicas = 1;
    report_.reset();
  }

  int min_ops() const override { return 1; }

  bool op(int /*i*/, Spans& spans) override {
    FleetReport rep;
    {
      Span s(spans, "fleet.serve_fleet");
      rep = serve_fleet(fleet_, trace_, policy_);
    }
    bool ok = rep.serve.records.size() + rep.serve.rejected_ids.size() ==
              static_cast<std::size_t>(kRequests);
    std::string json = rep.to_json();
    if (!report_) {
      report_ = std::move(rep);
      json_ = std::move(json);
    } else {
      ok = ok && json == json_;
    }
    return ok;
  }

  double units(int /*i*/) const override { return kRequests; }

  std::string digest() const override { return Digest().text(json_).hex(); }

  void sim_metrics(MetricMap& out) const override {
    const ServeReport& s = report_->serve;
    const double freq = fleet_.freq_hz;
    const double span_s = static_cast<double>(s.makespan_cycles) / freq;
    std::size_t in_slo = 0;
    for (const LatencyRecord& r : s.records) in_slo += r.slo_met ? 1 : 0;
    out["sim_latency_ms"] = {cycles_ms(s.service.p50, freq), "sim_ms"};
    out["sim_p50_ms"] = {cycles_ms(s.latency.p50, freq), "sim_ms"};
    out["sim_p99_ms"] = {cycles_ms(s.latency.p99, freq), "sim_ms"};
    out["sim_goodput_rps"] = {static_cast<double>(in_slo) / span_s,
                              "1/sim_s"};
    out["sim_admit_frac"] = {
        static_cast<double>(s.records.size()) / kRequests, "ratio"};
    out["sim_replica_s"] = {
        static_cast<double>(report_->replica_cycles) / freq, "sim_s"};
    out["sim_tokens_per_s"] = {
        static_cast<double>(s.records.size()) * cfg_.tokens() / span_s,
        "1/sim_s"};
  }

  int layer_metrics(Spans& /*spans*/, double op_ms, MetricMap& out) override {
    const FleetReport& f = *report_;
    const double freq = fleet_.freq_hz;
    out["cluster.probe_ms"].value = median(probe_ms_);
    out["cluster.request_cycles"].value =
        static_cast<double>(request_cycles_);
    out["fleet.host_us_per_request"].value = op_ms * 1e3 / kRequests;
    out["fleet.scale_events"].value =
        static_cast<double>(f.scale_events.size());
    out["fleet.instances_created"].value =
        static_cast<double>(f.replicas.size());
    out["fleet.peak_replicas"].value = f.peak_replicas;
    out["fleet.live_instance_ratio"].value =
        static_cast<double>(f.peak_replicas) /
        static_cast<double>(f.replicas.size());
    for (const TenantBreakdown& t : f.serve.tenants) {
      out["fleet.tenant." + t.name + ".sim_p99_ms"].value =
          cycles_ms(t.latency.p99, freq);
      out["fleet.tenant." + t.name + ".rejected"].value =
          static_cast<double>(t.rejected);
    }
    return 0;
  }

  std::vector<std::string> notes() const override {
    return {"fleet: " + std::to_string(kRequests) + " requests, " +
            std::to_string(request_cycles_) + " cycles per request, " +
            (report_ ? std::to_string(report_->scale_events.size()) : "0") +
            " scale events, " +
            (report_ ? std::to_string(report_->replicas.size()) : "0") +
            " instances"};
  }

 private:
  SystemConfig card_;
  ServePolicy policy_;
  TenantSet tenants_;
  ModelSpec spec_;
  VitConfig cfg_;
  std::vector<double> probe_ms_;
  std::uint64_t request_cycles_ = 0;
  ArrivalTrace trace_;
  FleetSpec fleet_;
  std::optional<FleetReport> report_;
  std::string json_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_day() {
  return std::make_unique<FleetDay>();
}

}  // namespace perfbench
