// Online serving against a cluster: `replicas` data-parallel copies of a
// sharded (tensor- or pipeline-parallel) cluster stand behind the same
// bounded admission queue and SLO-aware continuous batcher that serves the
// single-card path — serve_events does not care that an "executor" is now
// a whole multi-card replica.
//
// Same two-phase split as serve_online: a parallel functional phase runs
// every request's sharded forward into index-owned slots (bit-identical
// for any worker count), then the serial virtual-time loop schedules the
// replicas. A replica's service pass is: load the request activations over
// the host link into card HBM, run the sharded forward (compute +
// collectives on the request critical path), store the features back.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "reliability/degradation.hpp"
#include "serving/event_loop.hpp"
#include "sim/counters.hpp"

namespace bfpsim {

struct ClusterServeResult {
  ServeReport report;
  /// Functional block outputs per request id (every slot populated, even
  /// for requests the queue later rejected — that is what makes phase 1
  /// parallel).
  std::vector<std::vector<float>> features;
  std::vector<ClusterStats> request_stats;  ///< per request id
};

/// The functional phase of a cluster serve (serve_cluster, and class 0 of
/// Session::serve_fleet): request i's embeddings are seeded from
/// trace.seed + i and its sharded forward runs into index-owned slots,
/// bit-identical for any worker count of `pool` (null = serial). Its
/// service pass loads the activations over the card's HBM, runs the
/// forward's critical path (compute + collectives) and stores the
/// features back.
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

/// Serve `trace` against `replicas` copies of the sharded cluster `exec`.
/// `pool` parallelizes the functional forwards only; `event_trace`
/// receives cycle-stamped queue/replica events (components "queue",
/// "replica<k>").
///
/// `card_failures` (cards numbered globally, replica r owning cards
/// [r*num_cards, (r+1)*num_cards)) are hard failures in virtual time: a
/// dead card kills its whole sharded replica, whose in-flight requests
/// fail over to the surviving replicas through the event loop's retry
/// path. Empty (default) = today's behaviour, bit for bit.
ClusterServeResult serve_cluster(
    const ClusterExecutor& exec, int replicas, const ArrivalTrace& trace,
    const ServePolicy& policy, ThreadPool* pool = nullptr,
    Trace* event_trace = nullptr,
    const std::vector<CardFailure>& card_failures = {});

}  // namespace bfpsim
