#include "cluster/cluster_serving.hpp"

#include "common/error.hpp"
#include "fabric/hbm.hpp"

namespace bfpsim {

ClusterRequests run_cluster_requests(const ClusterExecutor& exec,
                                     const ArrivalTrace& trace,
                                     ThreadPool* pool) {
  const VitConfig& cfg = exec.config();
  const auto un = static_cast<std::size_t>(trace.total_requests);
  ClusterRequests r;
  r.features.resize(un);
  r.stats.resize(un);
  auto run_request = [&](std::size_t i) {
    std::vector<float> x = random_embeddings(
        cfg, trace.seed + static_cast<std::uint64_t>(i));
    r.features[i] = exec.forward(std::move(x), &r.stats[i], nullptr);
  };
  if (pool != nullptr) {
    pool->parallel_for(un, run_request);
  } else {
    for (std::size_t i = 0; i < un; ++i) run_request(i);
  }

  const SystemConfig& card = exec.topology().card_config();
  const std::uint64_t io_bytes =
      static_cast<std::uint64_t>(cfg.tokens()) *
      static_cast<std::uint64_t>(cfg.embed_dim) * sizeof(float);
  r.io_cycles = transfer_cycles(card.hbm, io_bytes, card.hbm.bfp_burst_bytes);
  return r;
}

std::vector<PassSpec> ClusterRequests::passes() const {
  std::vector<PassSpec> out;
  out.reserve(stats.size());
  for (const ClusterStats& st : stats) {
    out.push_back({io_cycles, st.total_cycles(), io_cycles});
  }
  return out;
}

void ClusterRequests::add_counters(Counters& counters) const {
  for (const ClusterStats& st : stats) {
    counters.add("serve.bfp_macs", st.bfp_macs);
    counters.add("cluster.collective_cycles", st.collective_cycles);
    counters.add("cluster.collective_bytes", st.collective_bytes);
  }
}

ClusterServeResult serve_cluster(const ClusterExecutor& exec, int replicas,
                                 const ArrivalTrace& trace,
                                 const ServePolicy& policy,
                                 ThreadPool* pool, Trace* event_trace,
                                 const std::vector<CardFailure>& card_failures) {
  trace.validate();
  policy.validate();
  BFP_REQUIRE(replicas >= 1, "serve_cluster: need at least one replica");

  // ---- phase 1: sharded functional forwards, index-owned slots ----
  ClusterRequests reqs = run_cluster_requests(exec, trace, pool);

  // ---- phase 2: the shared serial event loop over the replicas ----
  BackendSpec backend;
  backend.executors = replicas;
  backend.freq_hz = exec.topology().card_config().pu.freq_hz;
  backend.executor_prefix = "replica";
  backend.failures =
      replica_failures(card_failures, exec.num_cards(), replicas);
  backend.passes = reqs.passes();

  ClusterServeResult out;
  out.report = serve_events(backend, trace, policy, event_trace);
  reqs.add_counters(out.report.counters);
  out.report.counters.add("cluster.cards",
                          static_cast<std::uint64_t>(exec.num_cards()));
  out.report.counters.add("cluster.replicas",
                          static_cast<std::uint64_t>(replicas));
  if (!card_failures.empty()) {
    out.report.counters.add("cluster.card_failures", card_failures.size());
  }
  out.features = std::move(reqs.features);
  out.request_stats = std::move(reqs.stats);
  return out;
}

}  // namespace bfpsim
