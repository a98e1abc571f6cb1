// The host runtime session: the software a deployment would actually link.
//
// A Session owns the device (memory + accelerator system models) and
// provides the full deployment flow the paper's conclusion sketches as its
// "full stack acceleration" framework:
//
//   1. deploy(weights): quantize every linear layer to bfp8 once (this is
//      the no-retraining deployment step), serialize the blocks into HBM,
//      and keep the fp32 non-linear parameters resident alongside;
//   2. infer(model, embeddings): DMA the activations in, run the mixed
//      bfp8 + fp32 forward, DMA the features out — with a command log and
//      a cycle budget covering both compute and data movement.
//
// Numerics note: the forward path quantizes activations per call and
// weights deterministically, so results are bit-identical to streaming the
// resident quantized blocks (quantization is a pure function of the fp32
// weights; the resident copy exists for footprint and upload accounting).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_serving.hpp"
#include "fabric/system.hpp"
#include "fleet/fleet_loop.hpp"
#include "reliability/degradation.hpp"
#include "runtime/device_memory.hpp"
#include "serving/event_loop.hpp"
#include "transformer/model.hpp"

namespace bfpsim {

/// One entry of the session's command log.
struct CommandRecord {
  enum class Kind { kDmaIn, kDmaOut, kCompute, kHost };
  Kind kind = Kind::kCompute;
  std::string detail;
  std::uint64_t bytes = 0;
  std::uint64_t cycles = 0;
};

using ModelId = int;

/// Everything a deployed model occupies on the device.
struct DeploymentInfo {
  ModelId id = -1;
  std::string name;
  std::uint64_t quantized_weight_bytes = 0;  ///< bfp8 blocks in HBM
  std::uint64_t fp32_param_bytes = 0;        ///< LN params, biases
  std::uint64_t upload_cycles = 0;
  double compression_ratio = 0.0;  ///< fp32 weight bytes / device bytes
};

/// Outcome of one inference.
struct InferenceResult {
  std::vector<float> features;  ///< final block output (tokens x d)
  std::vector<float> logits;
  ForwardStats stats;
  std::uint64_t dma_cycles = 0;
  std::uint64_t total_cycles = 0;

  double latency_ms(double freq_hz) const {
    return static_cast<double>(total_cycles) / freq_hz * 1e3;
  }
};

class Session {
 public:
  explicit Session(const SystemConfig& cfg = SystemConfig{});

  /// Quantize + upload a model; weights become device-resident.
  ModelId deploy(const VitWeights& weights, const std::string& name = "");

  /// Run one image (tokens x d embeddings) through a deployed model.
  InferenceResult infer(ModelId model, std::span<const float> embeddings);

  /// Serve a batch of images, each whole on one unit (Section III-A's
  /// independent units): every image's forward runs on a single-unit
  /// system, then the images arrive together at cycle 0 (batch_trace) and
  /// serve_events places each alone on the lowest free unit, so makespan,
  /// images/s and utilization are the serving loop's, over compute-only
  /// passes. Per image the session adds the classifier head, the DMA
  /// in/out and the command log, serially in image order.
  ///
  /// `pool` (optional) runs the per-image forwards on the parallel
  /// execution engine; results, cycle counts and the log are
  /// bit-identical to the serial path for any worker count.
  struct BatchInference {
    std::vector<InferenceResult> results;
    std::uint64_t makespan_cycles = 0;
    double images_per_second = 0.0;
    double utilization = 0.0;
  };
  BatchInference infer_batch(ModelId model,
                             std::span<const std::vector<float>> embeddings,
                             ThreadPool* pool = nullptr);

  /// Online serving: replay a seeded arrival trace against a deployed
  /// model through the virtual-time event loop (admission queue, SLO-aware
  /// continuous batching, per-unit pipeline timelines — serving/
  /// event_loop.hpp). `pool` parallelizes the functional forwards only;
  /// results are bit-identical for any worker count. `event_trace`, when
  /// non-null and enabled, receives the per-unit serving timeline. Appends
  /// one summary record to the command log.
  OnlineServeResult serve(ModelId model, const ArrivalTrace& trace,
                          const ServePolicy& policy,
                          ThreadPool* pool = nullptr,
                          Trace* event_trace = nullptr);

  /// One replica shape a fleet may provision (cards of this session's
  /// card configuration, sharded by `strategy`).
  struct FleetClassConfig {
    int cards = 1;
    PartitionStrategy strategy = PartitionStrategy::kPipeline;
    int initial_replicas = 1;
    int max_replicas = 8;
  };

  /// A heterogeneous, autoscaled, multi-tenant serving fleet.
  struct FleetConfig {
    std::vector<FleetClassConfig> classes = {FleetClassConfig{}};
    TopologyKind topology = TopologyKind::kRing;
    LinkConfig link;            ///< inter-card link within each replica
    TenantSet tenants;          ///< empty = one anonymous tenant
    AutoscalerPolicy autoscaler;
    /// Hard card failures in virtual time, single-class fleets only.
    /// Cards are numbered globally: initial replica r owns cards
    /// [r*cards, (r+1)*cards). A dead card kills its replica; in-flight
    /// requests fail over to the survivors.
    std::vector<CardFailure> card_failures;
  };

  struct FleetServeResult {
    FleetReport report;
    /// Functional block outputs per request id (class-0 executor; the
    /// partitioner's all-gather discipline makes every class's forward
    /// bit-identical, so one copy represents them all).
    std::vector<std::vector<float>> features;
    std::vector<ClusterStats> request_stats;  ///< class-0, per request id
  };

  /// Fleet-scale online serving: requests from `trace` (optionally
  /// tenant-tagged via assign_tenants) flow through the tiered/quota'd
  /// admission queue onto replicas of the configured classes, with the
  /// virtual-time autoscaler growing and shrinking the fleet. Class 0 is
  /// costed per request (parallel functional forwards, index-owned
  /// slots); other classes are probed once and their per-request pass
  /// replicated — their cost model does not depend on request content.
  /// The deployed model is re-partitioned across each class's cards;
  /// features stay bit-identical to the single-card `serve` forwards (the
  /// partitioner's all-gather discipline). One class with a fixed replica
  /// count is a replicated sharded cluster, and its report also carries
  /// the cluster.cards and cluster.replicas counters. Appends one summary
  /// record to the command log.
  FleetServeResult serve_fleet(ModelId model, const FleetConfig& spec,
                               const ArrivalTrace& trace,
                               const ServePolicy& policy,
                               ThreadPool* pool = nullptr,
                               Trace* event_trace = nullptr);

  /// Release a deployed model's device memory.
  void undeploy(ModelId model);

  const DeploymentInfo& info(ModelId model) const;
  const std::vector<CommandRecord>& log() const { return log_; }
  void clear_log() { log_.clear(); }

  DeviceMemory& memory() { return memory_; }
  const AcceleratorSystem& system() const { return system_; }

 private:
  struct Deployed {
    bool live = false;
    VitModel model;
    DeploymentInfo info;
    std::vector<DeviceBuffer> buffers;
  };

  Deployed& checked(ModelId model);

  /// Apply the DMA model and command log to one precomputed forward and
  /// assemble its InferenceResult (serial, deterministic order — the
  /// counterpart of the parallel compute phase).
  InferenceResult account_inference(std::span<const float> embeddings,
                                    std::vector<float> features,
                                    std::vector<float> logits,
                                    const ForwardStats& stats);

  SystemConfig cfg_;
  AcceleratorSystem system_;
  DeviceMemory memory_;
  std::vector<Deployed> models_;
  std::vector<CommandRecord> log_;
};

}  // namespace bfpsim
