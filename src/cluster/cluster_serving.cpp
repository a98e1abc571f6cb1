#include "cluster/cluster_serving.hpp"

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

}  // namespace bfpsim
