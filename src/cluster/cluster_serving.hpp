// The functional phase of serving a sharded cluster. Session::serve_fleet
// costs its class 0 here: every request's sharded forward runs into an
// index-owned slot (bit-identical for any worker count), and each request
// becomes one service pass for the serial virtual-time loop — load the
// request activations over the host link into card HBM, run the sharded
// forward (compute + collectives on the request critical path), store the
// features back. Replicated sharded clusters are then a one-class fleet:
// the loop does not care that an "executor" is a whole multi-card replica.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "serving/event_loop.hpp"
#include "sim/counters.hpp"

namespace bfpsim {

/// Request i's embeddings are seeded from trace.seed + i and its sharded
/// forward runs into index-owned slots, bit-identical for any worker count
/// of `pool` (null = serial). Every slot is populated, even for requests
/// the queue later rejects — that is what makes the phase parallel.
struct ClusterRequests {
  std::vector<std::vector<float>> features;  ///< per request id
  std::vector<ClusterStats> stats;           ///< per request id
  std::uint64_t io_cycles = 0;  ///< one activation load (= one store)

  /// Each request's {load, forward, store} service pass, by request id.
  std::vector<PassSpec> passes() const;
  /// Add the requests' serve.bfp_macs, cluster.collective_cycles and
  /// cluster.collective_bytes to `counters`.
  void add_counters(Counters& counters) const;
};

ClusterRequests run_cluster_requests(const ClusterExecutor& exec,
                                     const ArrivalTrace& trace,
                                     ThreadPool* pool);

}  // namespace bfpsim
