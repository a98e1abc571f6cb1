#include "runtime/session.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "fabric/hbm.hpp"
#include "transformer/checkpoint.hpp"
#include "transformer/serving.hpp"

namespace bfpsim {

Session::Session(const SystemConfig& cfg)
    : cfg_(cfg), system_(cfg), memory_() {}

namespace {

/// Serialize a quantized matrix to its device image.
std::vector<std::uint8_t> to_image(const BfpMatrix& m) {
  std::ostringstream os;
  save_bfp_matrix(os, m);
  const std::string s = os.str();
  return {s.begin(), s.end()};
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
    const std::vector<std::uint8_t> image = to_image(q);
    const DeviceBuffer buf = memory_.alloc(image.size());
    const std::uint64_t cycles = memory_.write(buf, 0, image);
    dep.buffers.push_back(buf);
    dep.info.quantized_weight_bytes += image.size();
    dep.info.upload_cycles += cycles;
    fp32_weight_bytes += w.size() * sizeof(float);
  };
  auto upload_params = [&](const std::vector<float>& p) {
    const std::size_t bytes = p.size() * sizeof(float);
    const DeviceBuffer buf = memory_.alloc(bytes);
    std::vector<std::uint8_t> raw(bytes);
    std::memcpy(raw.data(), p.data(), bytes);
    dep.info.upload_cycles += memory_.write(buf, 0, raw);
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
  std::vector<std::uint8_t> raw(in_bytes);
  std::memcpy(raw.data(), embeddings.data(), in_bytes);
  const std::uint64_t in_cycles = memory_.write(in_buf, 0, raw);
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
  std::vector<std::uint8_t> out_raw(out_bytes);
  std::memcpy(out_raw.data(), r.features.data(), out_bytes);
  const std::uint64_t out_cycles = memory_.write(out_buf, 0, out_raw);
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
  BatchExecution exec =
      execute_transformer_batch(dep.model, system_, embeddings, pool);

  // Serial phase, fixed image order: classifier head, DMA modelling and
  // the command log.
  BatchInference out;
  out.results.reserve(embeddings.size());
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    std::vector<float> logits = dep.model.classify(exec.features[i]);
    out.results.push_back(account_inference(
        embeddings[i], std::move(exec.features[i]), std::move(logits),
        exec.image_stats[i]));
  }
  out.makespan_cycles = exec.timing.makespan_cycles;
  out.images_per_second = exec.timing.images_per_second;
  out.utilization = exec.timing.utilization;
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

ClusterServeResult Session::serve_cluster(ModelId model,
                                          const ClusterSpec& spec,
                                          const ArrivalTrace& trace,
                                          const ServePolicy& policy,
                                          ThreadPool* pool,
                                          Trace* event_trace) {
  Deployed& dep = checked(model);
  const ClusterTopology topo =
      spec.topology == TopologyKind::kRing
          ? ClusterTopology::ring(spec.cards, spec.link, cfg_)
          : ClusterTopology::fully_connected(spec.cards, spec.link, cfg_);
  const ClusterExecutor exec(dep.model.weights(), topo, spec.strategy);
  ClusterServeResult r =
      bfpsim::serve_cluster(exec, spec.replicas, trace, policy, pool,
                            event_trace, spec.card_failures);
  log_.push_back(
      {CommandRecord::Kind::kCompute,
       "serve_cluster " + dep.info.name + " (" +
           std::to_string(spec.cards) + " cards x " +
           std::to_string(spec.replicas) + " replicas, " +
           to_string(spec.strategy) + "): " +
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
  trace.validate();
  const auto un = static_cast<std::size_t>(trace.total_requests);

  auto make_topology = [&](int cards) {
    return spec.topology == TopologyKind::kRing
               ? ClusterTopology::ring(cards, spec.link, cfg_)
               : ClusterTopology::fully_connected(cards, spec.link, cfg_);
  };

  // Activations in/out over HBM, same for every class (same card config).
  const VitConfig& mcfg = dep.model.config();
  const std::uint64_t io_bytes =
      static_cast<std::uint64_t>(mcfg.tokens()) *
      static_cast<std::uint64_t>(mcfg.embed_dim) * sizeof(float);
  const std::uint64_t load_cycles =
      transfer_cycles(cfg_.hbm, io_bytes, cfg_.hbm.bfp_burst_bytes);
  const std::uint64_t store_cycles = load_cycles;

  FleetServeResult out;
  out.features.resize(un);
  out.request_stats.resize(un);

  // ---- phase 1: class-0 per-request forwards (parallel, index-owned
  // slots), exactly the serve_cluster construction ----
  const ClusterTopology topo0 = make_topology(spec.classes[0].cards);
  const ClusterExecutor exec0(dep.model.weights(), topo0,
                              spec.classes[0].strategy);
  auto run_request = [&](std::size_t i) {
    std::vector<float> x = random_embeddings(
        mcfg, trace.seed + static_cast<std::uint64_t>(i));
    out.features[i] =
        exec0.forward(std::move(x), &out.request_stats[i], nullptr);
  };
  if (pool != nullptr) {
    pool->parallel_for(un, run_request);
  } else {
    for (std::size_t i = 0; i < un; ++i) run_request(i);
  }

  // ---- assemble the fleet spec: class 0 costed per request, further
  // classes probed once (their cost model is content-independent) ----
  FleetSpec fleet;
  fleet.freq_hz = cfg_.pu.freq_hz;
  fleet.tenants = spec.tenants;
  fleet.autoscaler = spec.autoscaler;
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    const FleetClassConfig& fc = spec.classes[c];
    ReplicaClassSpec cls;
    cls.name = std::to_string(fc.cards) + "x" + to_string(fc.strategy);
    cls.cards = fc.cards;
    cls.strategy = to_string(fc.strategy);
    cls.initial_replicas = fc.initial_replicas;
    cls.max_replicas = fc.max_replicas;
    cls.passes.reserve(un);
    if (c == 0) {
      for (std::size_t i = 0; i < un; ++i) {
        cls.passes.push_back({load_cycles,
                              out.request_stats[i].total_cycles(),
                              store_cycles});
      }
    } else {
      const ClusterTopology topo = make_topology(fc.cards);
      const ClusterExecutor exec(dep.model.weights(), topo, fc.strategy);
      ClusterStats probe;
      std::vector<float> x = random_embeddings(mcfg, trace.seed);
      exec.forward(std::move(x), &probe, nullptr);
      const PassSpec pass{load_cycles, probe.total_cycles(), store_cycles};
      cls.passes.assign(un, pass);
    }
    fleet.classes.push_back(std::move(cls));
  }

  // ---- phase 2: the serial fleet event loop ----
  out.report = bfpsim::serve_fleet(fleet, trace, policy, event_trace);

  for (std::size_t i = 0; i < un; ++i) {
    out.report.serve.counters.add("serve.bfp_macs",
                                  out.request_stats[i].bfp_macs);
    out.report.serve.counters.add("cluster.collective_cycles",
                                  out.request_stats[i].collective_cycles);
    out.report.serve.counters.add("cluster.collective_bytes",
                                  out.request_stats[i].collective_bytes);
  }
  if (spec.classes.size() == 1 && !spec.autoscaler.enabled) {
    // A single fixed-shape fleet IS a cluster serve; report the same
    // cluster identity counters so the degenerate report stays
    // byte-identical to Session::serve_cluster's.
    out.report.serve.counters.add(
        "cluster.cards", static_cast<std::uint64_t>(spec.classes[0].cards));
    out.report.serve.counters.add(
        "cluster.replicas",
        static_cast<std::uint64_t>(spec.classes[0].initial_replicas));
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
