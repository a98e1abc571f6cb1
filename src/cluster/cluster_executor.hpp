// Drives a partitioned transformer across the cards of a ClusterTopology.
//
// The executor owns the partition plan and answers two questions:
//
//  * functional — `forward` runs the sharded mixed bfp8/fp32 forward and
//    returns features that are bit-identical to the single-card
//    VitModel::forward_mixed for the same input. Tensor parallelism runs
//    the one encoder walk, forward_sharded (transformer/model.hpp), with
//    one shard per card; the executor only builds the shard list, prices
//    each all-gather on the topology and folds the per-card stats.
//    Pipeline parallelism chains the stages' forward_mixed. The
//    partitioner's column-split / all-gather discipline keeps the bits;
//    tests pin them;
//
//  * timing — per-card compute cycles come from each card's
//    AcceleratorSystem latency model applied to that card's slice shapes,
//    collective cycles from the topology's ring cost model. Streams of
//    requests overlap communication with compute where the dependency
//    graph allows: pipeline stages work on consecutive requests
//    concurrently (stage boundary sends overlap the sender's next
//    request), and tensor-parallel clusters run request i's collectives
//    on the interconnect while request i+1 computes (two independent
//    engines, the fabric/pipeline.hpp double-buffering rules).
//
// Determinism contract (PR 1/PR 2 extended): worker count only ever
// parallelizes independent requests into index-owned slots or independent
// GEMM tiles; every cycle count is an analytic function of shapes and
// configuration. Same weights + inputs => bit-identical features, cycles,
// and reports for any ThreadPool size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/partitioner.hpp"
#include "cluster/topology.hpp"
#include "common/thread_pool.hpp"

namespace bfpsim {

/// What one sharded forward consumed.
struct ClusterStats {
  /// Compute cycles performed by each card for this request.
  std::vector<std::uint64_t> card_compute_cycles;
  /// Per-gap pipeline boundary send cost (size cards-1; empty for tensor).
  std::vector<std::uint64_t> stage_send_cycles;

  /// Compute on the request's critical path: tensor — max over cards
  /// (cards run concurrently); pipeline — sum over stages (one request
  /// visits them serially).
  std::uint64_t compute_cycles = 0;
  std::uint64_t collective_cycles = 0;  ///< interconnect on the critical path
  std::uint64_t collective_bytes = 0;   ///< payload crossing links
  std::uint64_t bfp_macs = 0;

  std::uint64_t total_cycles() const {
    return compute_cycles + collective_cycles;
  }
  double collective_share() const {
    const std::uint64_t t = total_cycles();
    return t == 0 ? 0.0
                  : static_cast<double>(collective_cycles) /
                        static_cast<double>(t);
  }
};

/// Stream-level timing (prefill throughput view).
struct StreamTiming {
  int requests = 0;
  std::uint64_t request_cycles = 0;   ///< single-request latency
  std::uint64_t makespan_cycles = 0;  ///< last completion
  double requests_per_second = 0.0;   ///< at the card fabric frequency
  std::vector<double> card_utilization;  ///< busy / makespan per card
  double collective_share = 0.0;  ///< collective / (compute + collective)
  std::uint64_t collective_bytes = 0;
};

class ClusterExecutor {
 public:
  /// Partition `weights` across the topology's cards. Throws ShapeError on
  /// indivisible models (see partition_model).
  ClusterExecutor(const VitWeights& weights, ClusterTopology topology,
                  PartitionStrategy strategy);

  int num_cards() const { return topo_.num_cards(); }
  const ClusterTopology& topology() const { return topo_; }
  const PartitionPlan& plan() const { return plan_; }
  const VitConfig& config() const { return plan_.cfg; }

  /// One sharded forward: x is (tokens x d) row-major; returns the final
  /// block output, bit-identical to VitModel::forward_mixed on one card.
  /// `pool` (optional) spreads GEMM tiles across workers — bit-identical
  /// for any worker count.
  std::vector<float> forward(std::vector<float> x,
                             ClusterStats* stats = nullptr,
                             ThreadPool* pool = nullptr) const;

  /// Push a request stream through the cluster. Functional forwards run in
  /// index-owned slots (`pool` parallelizes across requests); the timing
  /// recurrence is serial and analytic.
  struct StreamResult {
    std::vector<std::vector<float>> features;
    std::vector<ClusterStats> per_request;
    StreamTiming timing;
  };
  StreamResult forward_stream(std::span<const std::vector<float>> inputs,
                              ThreadPool* pool = nullptr) const;

  /// Timing of an `requests`-long stream where every request costs
  /// `per_request` (the analytic projection benches use after one
  /// functional probe — per-request cycles are shape-driven).
  StreamTiming project_stream(const ClusterStats& per_request,
                              int requests) const;

 private:
  std::vector<float> forward_pipeline(std::vector<float> x,
                                      ClusterStats* stats,
                                      ThreadPool* pool) const;
  std::vector<float> forward_tensor(std::vector<float> x,
                                    ClusterStats* stats,
                                    ThreadPool* pool) const;

  StreamTiming assemble_timing(
      std::span<const ClusterStats> per_request) const;

  ClusterTopology topo_;
  PartitionPlan plan_;
  std::vector<VitModel> stage_models_;  ///< pipeline strategy only
};

}  // namespace bfpsim
