#include "runtime/session.hpp"

#include <sstream>

#include "common/error.hpp"
#include "transformer/checkpoint.hpp"

namespace bfpsim {

Session::Session(const SystemConfig& cfg)
    : cfg_(cfg), system_(cfg), memory_() {}

namespace {

/// Byte size of a quantized matrix's device image (its checkpoint
/// serialization).
std::uint64_t image_size(const BfpMatrix& m) {
  std::ostringstream os;
  save_bfp_matrix(os, m);
  return os.str().size();
}

}  // namespace

ModelId Session::deploy(const VitWeights& weights, const std::string& name) {
  weights.cfg.validate();
  const BfpFormat fmt = bfp8_format();
  const int d = weights.cfg.embed_dim;
  const int m = weights.cfg.mlp_hidden();

  Deployed dep{true, VitModel(weights), DeploymentInfo{}, {}};
  dep.info.id = static_cast<ModelId>(models_.size());
  dep.info.name = name.empty() ? weights.cfg.name : name;

  std::uint64_t fp32_weight_bytes = 0;
  auto upload_matrix = [&](const std::vector<float>& w, int rows,
                           int cols) {
    const BfpMatrix q = quantize_matrix(w, rows, cols, fmt);
    const std::uint64_t image_bytes = image_size(q);
    const DeviceBuffer buf = memory_.alloc(image_bytes);
    dep.info.upload_cycles += memory_.transfer(buf, 0, image_bytes);
    dep.buffers.push_back(buf);
    dep.info.quantized_weight_bytes += image_bytes;
    fp32_weight_bytes += w.size() * sizeof(float);
  };
  auto upload_params = [&](const std::vector<float>& p) {
    const std::size_t bytes = p.size() * sizeof(float);
    const DeviceBuffer buf = memory_.alloc(bytes);
    dep.info.upload_cycles += memory_.transfer(buf, 0, bytes);
    dep.buffers.push_back(buf);
    dep.info.fp32_param_bytes += bytes;
  };

  for (const BlockWeights& b : weights.blocks) {
    upload_matrix(b.qkv_w, d, 3 * d);
    upload_matrix(b.proj_w, d, d);
    upload_matrix(b.fc1_w, d, m);
    upload_matrix(b.fc2_w, m, d);
    upload_params(b.qkv_b);
    upload_params(b.proj_b);
    upload_params(b.fc1_b);
    upload_params(b.fc2_b);
    upload_params(b.ln1_gamma);
    upload_params(b.ln1_beta);
    upload_params(b.ln2_gamma);
    upload_params(b.ln2_beta);
  }
  upload_params(weights.head_gamma);
  upload_params(weights.head_beta);
  upload_matrix(weights.head_w, d, weights.cfg.num_classes);
  upload_params(weights.head_b);

  dep.info.compression_ratio =
      static_cast<double>(fp32_weight_bytes) /
      static_cast<double>(dep.info.quantized_weight_bytes);

  log_.push_back({CommandRecord::Kind::kDmaIn,
                  "deploy " + dep.info.name,
                  dep.info.quantized_weight_bytes + dep.info.fp32_param_bytes,
                  dep.info.upload_cycles});
  models_.push_back(std::move(dep));
  return models_.back().info.id;
}

Session::Deployed& Session::checked(ModelId model) {
  BFP_REQUIRE(model >= 0 &&
                  static_cast<std::size_t>(model) < models_.size() &&
                  models_[static_cast<std::size_t>(model)].live,
              "Session: unknown or undeployed model");
  return models_[static_cast<std::size_t>(model)];
}

InferenceResult Session::account_inference(
    std::span<const float> embeddings, std::vector<float> features,
    std::vector<float> logits, const ForwardStats& stats) {
  InferenceResult r;
  r.stats = stats;

  // DMA activations in (scratch buffer, freed after the run).
  const std::uint64_t in_bytes = embeddings.size() * sizeof(float);
  const DeviceBuffer in_buf = memory_.alloc(in_bytes);
  const std::uint64_t in_cycles = memory_.transfer(in_buf, 0, in_bytes);
  log_.push_back(
      {CommandRecord::Kind::kDmaIn, "embeddings", in_bytes, in_cycles});

  r.features = std::move(features);
  log_.push_back({CommandRecord::Kind::kCompute, "forward (bfp8+fp32)", 0,
                  r.stats.total_cycles()});
  log_.push_back({CommandRecord::Kind::kHost,
                  "host divisions",
                  0,
                  r.stats.nonlinear_ops.host_div});

  r.logits = std::move(logits);

  // DMA features out.
  const std::uint64_t out_bytes = r.features.size() * sizeof(float);
  const DeviceBuffer out_buf = memory_.alloc(out_bytes);
  const std::uint64_t out_cycles = memory_.transfer(out_buf, 0, out_bytes);
  log_.push_back(
      {CommandRecord::Kind::kDmaOut, "features", out_bytes, out_cycles});

  memory_.free(in_buf);
  memory_.free(out_buf);

  r.dma_cycles = in_cycles + out_cycles;
  r.total_cycles = r.dma_cycles + r.stats.total_cycles();
  return r;
}

InferenceResult Session::infer(ModelId model,
                               std::span<const float> embeddings) {
  Deployed& dep = checked(model);
  const VitConfig& cfg = dep.model.config();
  const std::size_t expect =
      static_cast<std::size_t>(cfg.tokens()) *
      static_cast<std::size_t>(cfg.embed_dim);
  BFP_REQUIRE(embeddings.size() == expect,
              "Session::infer: embeddings must be tokens x embed_dim");

  // Mixed-precision forward (see the header's numerics note), then the
  // classifier head (host-side in this deployment).
  ForwardStats stats;
  std::vector<float> x(embeddings.begin(), embeddings.end());
  std::vector<float> features =
      dep.model.forward_mixed(std::move(x), system_, &stats);
  std::vector<float> logits = dep.model.classify(features);
  return account_inference(embeddings, std::move(features),
                           std::move(logits), stats);
}

Session::BatchInference Session::infer_batch(
    ModelId model, std::span<const std::vector<float>> embeddings,
    ThreadPool* pool) {
  Deployed& dep = checked(model);
  BFP_REQUIRE(!embeddings.empty(), "Session::infer_batch: empty batch");
  const std::size_t n = embeddings.size();

  // Parallel phase: each image runs whole on one unit, so its forward sees
  // a single-unit system. Image i owns slot i and builds its own system
  // (hence its own PU); the model is shared read-only, so any worker
  // interleaving produces the serial loop's bits.
  SystemConfig one = cfg_;
  one.num_units = 1;
  std::vector<std::vector<float>> features(n);
  std::vector<ForwardStats> stats(n);
  auto run_image = [&](std::size_t i) {
    const AcceleratorSystem unit(one);
    features[i] = dep.model.forward_mixed(embeddings[i], unit, &stats[i]);
  };
  if (pool != nullptr) {
    pool->parallel_for(n, run_image);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_image(i);
  }

  // Serial phase, fixed image order: classifier head, DMA modelling and
  // the command log.
  BatchInference out;
  out.results.reserve(n);
  BackendSpec units;
  units.executors = cfg_.num_units;
  units.freq_hz = cfg_.pu.freq_hz;
  units.passes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> logits = dep.model.classify(features[i]);
    out.results.push_back(account_inference(
        embeddings[i], std::move(features[i]), std::move(logits), stats[i]));
    units.passes.push_back({0, stats[i].total_cycles(), 0});
  }

  // The batch arrives at once and each image is served alone on the lowest
  // free unit: makespan, images/s and utilization are the loop's.
  const ServeReport rep =
      serve_events(units, batch_trace(static_cast<int>(n), units.freq_hz),
                   {.queue_capacity = n, .max_batch = 1});
  out.makespan_cycles = rep.makespan_cycles;
  out.images_per_second = rep.completed_rps;
  out.utilization = rep.utilization;
  return out;
}

OnlineServeResult Session::serve(ModelId model, const ArrivalTrace& trace,
                                 const ServePolicy& policy, ThreadPool* pool,
                                 Trace* event_trace) {
  Deployed& dep = checked(model);
  OnlineServeResult r =
      serve_online(dep.model, system_, trace, policy, pool, event_trace);
  log_.push_back(
      {CommandRecord::Kind::kCompute,
       "serve " + dep.info.name + ": " +
           std::to_string(r.report.records.size()) + "/" +
           std::to_string(trace.total_requests) + " completed, " +
           std::to_string(r.report.rejected_ids.size()) + " rejected",
       0, r.report.makespan_cycles});
  return r;
}

Session::FleetServeResult Session::serve_fleet(ModelId model,
                                               const FleetConfig& spec,
                                               const ArrivalTrace& trace,
                                               const ServePolicy& policy,
                                               ThreadPool* pool,
                                               Trace* event_trace) {
  Deployed& dep = checked(model);
  BFP_REQUIRE(!spec.classes.empty(),
              "Session::serve_fleet: need at least one replica class");
  BFP_REQUIRE(spec.card_failures.empty() || spec.classes.size() == 1,
              "Session::serve_fleet: card failures need a one-class fleet");
  trace.validate();
  const auto un = static_cast<std::size_t>(trace.total_requests);

  auto make_topology = [&](int cards) {
    return spec.topology == TopologyKind::kRing
               ? ClusterTopology::ring(cards, spec.link, cfg_)
               : ClusterTopology::fully_connected(cards, spec.link, cfg_);
  };

  // ---- phase 1: class-0 per-request forwards ----
  const ClusterTopology topo0 = make_topology(spec.classes[0].cards);
  const ClusterExecutor exec0(dep.model.weights(), topo0,
                              spec.classes[0].strategy);
  ClusterRequests reqs = run_cluster_requests(exec0, trace, pool);

  // ---- assemble the fleet spec: class 0 costed per request, further
  // classes probed once (their cost model is content-independent) ----
  FleetSpec fleet;
  fleet.freq_hz = cfg_.pu.freq_hz;
  fleet.tenants = spec.tenants;
  fleet.autoscaler = spec.autoscaler;
  if (!spec.card_failures.empty()) {
    fleet.failures =
        replica_failures(spec.card_failures, spec.classes[0].cards,
                         spec.classes[0].initial_replicas);
  }
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    const FleetClassConfig& fc = spec.classes[c];
    ReplicaClassSpec cls;
    cls.name = std::to_string(fc.cards) + "x" + to_string(fc.strategy);
    cls.cards = fc.cards;
    cls.strategy = to_string(fc.strategy);
    cls.initial_replicas = fc.initial_replicas;
    cls.max_replicas = fc.max_replicas;
    if (c == 0) {
      cls.passes = reqs.passes();
    } else {
      const ClusterTopology topo = make_topology(fc.cards);
      const ClusterExecutor exec(dep.model.weights(), topo, fc.strategy);
      ClusterStats probe;
      std::vector<float> x =
          random_embeddings(dep.model.config(), trace.seed);
      exec.forward(std::move(x), &probe, nullptr);
      // Activations in/out over HBM: the same card config for every class.
      const PassSpec pass{reqs.io_cycles, probe.total_cycles(),
                          reqs.io_cycles};
      cls.passes.assign(un, pass);
    }
    fleet.classes.push_back(std::move(cls));
  }

  // ---- phase 2: the serial fleet event loop ----
  FleetServeResult out;
  out.report = bfpsim::serve_fleet(fleet, trace, policy, event_trace);
  reqs.add_counters(out.report.serve.counters);
  if (spec.classes.size() == 1 && !spec.autoscaler.enabled) {
    // A single fixed-shape fleet is a replicated sharded cluster: report
    // its shape.
    out.report.serve.counters.add(
        "cluster.cards", static_cast<std::uint64_t>(spec.classes[0].cards));
    out.report.serve.counters.add(
        "cluster.replicas",
        static_cast<std::uint64_t>(spec.classes[0].initial_replicas));
  }
  if (!spec.card_failures.empty()) {
    out.report.serve.counters.add("cluster.card_failures",
                                  spec.card_failures.size());
  }
  log_.push_back(
      {CommandRecord::Kind::kCompute,
       "serve_fleet " + dep.info.name + " (" +
           std::to_string(spec.classes.size()) + " classes, peak " +
           std::to_string(out.report.peak_replicas) + " replicas): " +
           std::to_string(out.report.serve.records.size()) + "/" +
           std::to_string(trace.total_requests) + " completed, " +
           std::to_string(out.report.serve.rejected_ids.size()) +
           " rejected",
       0, out.report.serve.makespan_cycles});
  out.features = std::move(reqs.features);
  out.request_stats = std::move(reqs.stats);
  return out;
}

void Session::undeploy(ModelId model) {
  BFP_REQUIRE(model >= 0 &&
                  static_cast<std::size_t>(model) < models_.size() &&
                  models_[static_cast<std::size_t>(model)].live,
              "Session::undeploy: unknown or undeployed model");
  Deployed& dep = models_[static_cast<std::size_t>(model)];
  for (const DeviceBuffer& b : dep.buffers) memory_.free(b);
  dep.buffers.clear();
  dep.live = false;
}

const DeploymentInfo& Session::info(ModelId model) const {
  BFP_REQUIRE(model >= 0 &&
                  static_cast<std::size_t>(model) < models_.size(),
              "Session::info: unknown model");
  return models_[static_cast<std::size_t>(model)].info;
}

}  // namespace bfpsim
