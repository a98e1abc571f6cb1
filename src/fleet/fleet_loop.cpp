#include "fleet/fleet_loop.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "fleet/router.hpp"

namespace bfpsim {

void FleetSpec::validate(int total_requests) const {
  BFP_REQUIRE(freq_hz > 0.0, "FleetSpec: frequency must be positive");
  BFP_REQUIRE(!classes.empty(), "FleetSpec: need at least one replica class");
  int initial = 0;
  for (const ReplicaClassSpec& c : classes) {
    BFP_REQUIRE(c.cards >= 1, "FleetSpec: class needs >= 1 card");
    BFP_REQUIRE(c.initial_replicas >= 0,
                "FleetSpec: initial replicas must be >= 0");
    BFP_REQUIRE(c.max_replicas >= std::max(1, c.initial_replicas),
                "FleetSpec: max replicas must cover the initial fleet");
    BFP_REQUIRE(c.passes.size() >= static_cast<std::size_t>(total_requests),
                "FleetSpec: class needs one pass spec per request id");
    initial += c.initial_replicas;
  }
  BFP_REQUIRE(initial >= 1, "FleetSpec: fleet starts with zero replicas");
  for (const ExecutorFailure& f : failures) {
    BFP_REQUIRE(f.executor >= 0 && f.executor < initial,
                "FleetSpec: failure targets a non-initial replica");
  }
  tenants.validate();
  autoscaler.validate();
}

namespace {

/// The fleet's scaler hook: the Autoscaler decides on each tick, the
/// router picks the class to spawn and the replica to retire.
class FleetScaler final : public Scaler {
 public:
  explicit FleetScaler(const FleetSpec& spec)
      : interval_(spec.autoscaler.interval_cycles),
        cold_start_(spec.autoscaler.cold_start_cycles),
        scaler_(spec.autoscaler) {
    for (const ReplicaClassSpec& c : spec.classes) {
      passes_.emplace_back(c.passes);
      max_.push_back(c.max_replicas);
    }
  }

  std::uint64_t interval_cycles() const override { return interval_; }

  void on_completion(std::uint64_t latency_cycles) override {
    scaler_.observe_completion(latency_cycles);
  }

  void on_tick(std::uint64_t now, std::size_t queue_depth,
               std::uint64_t slo_cycles, ReplicaTable& table) override {
    int ready = 0;
    int pending = 0;
    for (const int id : table.active) {
      const ReplicaInstance& r = table.replicas[static_cast<std::size_t>(id)];
      (r.ready_cycle <= now ? ready : pending) += 1;
    }
    const ScaleDecision d =
        scaler_.evaluate(now, queue_depth, ready, pending, slo_cycles);
    for (int s = 0; s < d.spawn; ++s) {
      const int cls = pick_spawn_class(table, passes_, max_);
      if (cls < 0) break;  // every class at its cap
      table.spawn(cls, now, now + cold_start_);
    }
    if (d.retire) {
      const int inst = pick_retire(table, passes_, now);
      if (inst >= 0) table.retire(inst, now);
    }
  }

 private:
  std::uint64_t interval_;
  std::uint64_t cold_start_;
  Autoscaler scaler_;
  std::vector<PassTable> passes_;
  std::vector<int> max_;
};

}  // namespace

FleetReport serve_fleet(const FleetSpec& spec, const ArrivalTrace& trace,
                        const ServePolicy& policy, Trace* event_trace) {
  spec.validate(trace.total_requests);
  ServeLoopSpec loop;
  loop.freq_hz = spec.freq_hz;
  loop.replica_prefix = spec.replica_prefix;
  loop.failures = spec.failures;
  for (const ReplicaClassSpec& c : spec.classes) {
    loop.classes.push_back({c.name, c.passes, c.initial_replicas});
  }
  // An empty TenantSet keeps the loop's one anonymous tenant. Tenant tags
  // beyond the TenantSet are rejected by the loop.
  if (!spec.tenants.empty()) {
    loop.tenants.clear();
    for (const TenantSpec& t : spec.tenants.tenants) {
      loop.tenants.push_back({t.slo_ms, t.tier});
    }
  }
  loop.quota_slots = spec.tenants.quota_slots(policy.queue_capacity);
  std::optional<FleetScaler> scaler;
  if (spec.autoscaler.enabled) loop.scaler = &scaler.emplace(spec);

  ServeLoopRun run = serve_loop(loop, trace, policy, event_trace);

  FleetReport fleet;
  fleet.serve = std::move(run.report);
  for (TenantBreakdown& row : fleet.serve.tenants) {
    row.name = spec.tenants.tenants[static_cast<std::size_t>(row.tenant)].name;
  }
  fleet.classes.reserve(spec.classes.size());
  for (const ReplicaClassSpec& c : spec.classes) {
    fleet.classes.push_back({c.name, c.cards, c.strategy,
                             c.initial_replicas, c.max_replicas});
  }
  fleet.scale_events = std::move(run.table.scale_events);
  fleet.replicas = std::move(run.table.replicas);
  fleet.replica_cycles = run.replica_cycles;
  fleet.peak_replicas = run.table.peak;
  return fleet;
}

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string FleetReport::to_json() const {
  std::ostringstream os;
  os << "{\"fleet\":{";
  os << "\"classes\":[";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const FleetClassInfo& c = classes[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << json_escape(c.name) << "\",\"cards\":" << c.cards
       << ",\"strategy\":\"" << json_escape(c.strategy)
       << "\",\"initial_replicas\":" << c.initial_replicas
       << ",\"max_replicas\":" << c.max_replicas << "}";
  }
  os << "],";
  os << "\"peak_replicas\":" << peak_replicas << ",";
  os << "\"replica_cycles\":" << replica_cycles << ",";
  os << "\"scale_events\":[";
  for (std::size_t i = 0; i < scale_events.size(); ++i) {
    const FleetScaleEvent& e = scale_events[i];
    if (i != 0) os << ",";
    os << "{\"cycle\":" << e.cycle << ",\"kind\":\""
       << (e.up ? "up" : "down") << "\",\"instance\":" << e.instance
       << ",\"class\":" << e.cls << "}";
  }
  os << "],";
  os << "\"replicas\":[";
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaInstance& r = replicas[i];
    if (i != 0) os << ",";
    os << "{\"instance\":" << r.instance << ",\"class\":" << r.cls
       << ",\"provisioned_cycle\":" << r.provisioned_cycle
       << ",\"ready_cycle\":" << r.ready_cycle
       << ",\"retired\":" << (r.retired ? "true" : "false")
       << ",\"retired_cycle\":" << r.retired_cycle << "}";
  }
  os << "],";
  os << "\"utilization\":" << fmt_double(serve.utilization);
  os << "},\"serve\":" << serve.to_json() << "}";
  return os.str();
}

}  // namespace bfpsim
