// deit-forward: compiled DeiT-Small forwards (registered spec "deit-small",
// bfp8, macro kernels) run one after another through compile() and
// CompiledModel::run on seeded embeddings, single-threaded, as a closed
// loop with one client. The paper's Table IV workload.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "compiler/fuse.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "compiler/verify.hpp"
#include "replay.hpp"
#include "transformer/model.hpp"

namespace perfbench {
namespace {

using namespace bfpsim;

/// Distinct seeded embeddings, used round robin by the operations.
constexpr int kInputs = 4;

/// Table IV of the paper (also printed by bench_table4_deit): latency of
/// each DeiT-Small partition in ms, and the fp32 share of latency.
struct PaperPartition {
  const char* family;
  double ms;
};
constexpr PaperPartition kTable4[] = {{"matmul", 1.201},
                                      {"layernorm", 0.425},
                                      {"softmax", 9.686},
                                      {"gelu", 3.389}};
constexpr double kTable4Fp32SharePct = 92.45;

class DeitForward final : public Workload {
 public:
  // compile() runs verify_program as a mandatory post-pass, so set-up
  // verifies once; the traced run times a separate verify on its own.
  void setup(Spans& spans) override {
    // A repeated set-up must not hold two copies of the weights at once.
    model_.reset();
    {
      Span s(spans, "compiler.load_model_spec");
      spec_ = load_model_spec("deit-small");
    }
    Graph fused;
    {
      Graph g;
      {
        Span s(spans, "compiler.build_spec_graph");
        g = build_spec_graph(spec_);
      }
      Span s(spans, "compiler.fuse_graph");
      fused = fuse_graph(g);
    }
    CompileOptions opt;
    opt.macro_kernels = true;
    {
      Span s(spans, "compiler.compile");
      model_ = compile(fused, sys_, opt);
    }
  }

  void make_inputs(std::uint64_t seed) override {
    cfg_ = vit_config_of(spec_);
    seed_ = seed;
    inputs_.clear();
    for (int k = 0; k < kInputs; ++k) {
      inputs_.push_back(random_embeddings(cfg_, sub_seed(seed, k)));
    }
    first_.assign(kInputs, {});
  }

  void prepare_checks() override {
    // Seed-independent cross-check against the legacy forward: the
    // compiled program must reproduce VitModel::forward_mixed bit for bit
    // and cycle for cycle on input 0 (the pin test_spec_compile holds).
    const VitModel legacy(random_weights(cfg_, spec_.seed));
    ForwardStats fs;
    legacy_out_ = legacy.forward_mixed(inputs_[0], sys_, &fs);
    legacy_cycles_ = fs.total_cycles();
  }

  int min_ops() const override { return 1; }

  bool op(int i, Spans& spans) override {
    const auto k = static_cast<std::size_t>(i % kInputs);
    RunResult r;
    {
      Span s(spans, "isa.CompiledModel::run");
      r = model_->run(std::span<const std::vector<float>>(&inputs_[k], 1));
    }
    bool ok = r.output.size() == cfg_.tokens() * static_cast<std::size_t>(
                                                     cfg_.embed_dim);
    for (const float v : r.output) ok = ok && std::isfinite(v);
    if (!stats_) stats_ = r.stats;
    ok = ok && r.stats.device_cycles == stats_->device_cycles &&
         r.stats.move_cycles == stats_->move_cycles &&
         same_ops(r.stats.ops, stats_->ops);
    if (k == 0) {
      ok = ok && same_bits(r.output, legacy_out_) &&
           r.stats.device_cycles - r.stats.move_cycles == legacy_cycles_;
    }
    if (first_[k].empty()) {
      first_[k] = std::move(r.output);
    } else {
      ok = ok && same_bits(r.output, first_[k]);
    }
    return ok;
  }

  double units(int /*i*/) const override { return 1.0; }

  std::string digest() const override {
    Digest d;
    d.floats(first_[0]);
    if (stats_) d.u64(stats_->device_cycles).u64(stats_->move_cycles);
    return d.hex();
  }

  void sim_metrics(MetricMap& out) const override {
    const double freq = sys_.config().pu.freq_hz;
    const double ms = cycles_ms(stats_ ? stats_->device_cycles : 0, freq);
    // One client: each forward is one request whose simulated latency is
    // the forward's device time on the accelerator.
    out["sim_latency_ms"] = {ms, "sim_ms"};
    out["sim_p50_ms"] = {ms, "sim_ms"};
    out["sim_p99_ms"] = {ms, "sim_ms"};
    out["sim_goodput_rps"] = {1e3 / ms, "1/sim_s"};
    out["sim_admit_frac"] = {1.0, "ratio"};
    out["sim_replica_s"] = {ms / 1e3, "sim_s"};
    out["sim_tokens_per_s"] = {cfg_.tokens() * 1e3 / ms, "1/sim_s"};
  }

  int layer_metrics(Spans& spans, double /*op_ms*/, MetricMap& out) override {
    int failures = 0;
    out["compiler.spec_load_ms"].value =
        median(spans.durations_ms("compiler.load_model_spec"));
    out["compiler.graph_build_ms"].value =
        median(spans.durations_ms("compiler.build_spec_graph")) +
        median(spans.durations_ms("compiler.fuse_graph"));
    out["compiler.compile_ms"].value =
        median(spans.durations_ms("compiler.compile"));
    {
      Span s(spans, "compiler.verify_program");
      const VerifyReport rep = verify_program(
          model_->program(), model_->verify_bindings(), sys_);
      if (!rep.clean()) {
        std::fprintf(stderr, "deit-small fails verification: %s\n",
                     rep.summary().c_str());
        ++failures;
      }
    }
    out["compiler.verify_ms"].value =
        median(spans.durations_ms("compiler.verify_program"));
    out["compiler.instructions"].value =
        static_cast<double>(model_->program().size());

    const ReplayResult rp =
        replay_program(*model_, sys_, sub_seed(seed_, 99), spans);
    // The replay must charge exactly what the whole-program run charged.
    if (rp.total.device_cycles != stats_->device_cycles ||
        rp.total.move_cycles != stats_->move_cycles ||
        !same_ops(rp.total.ops, stats_->ops) ||
        rp.total.host_ops != stats_->host_ops ||
        rp.total.instructions != stats_->instructions) {
      std::fprintf(stderr,
                   "replay mismatch: %llu vs %llu device cycles\n",
                   static_cast<unsigned long long>(rp.total.device_cycles),
                   static_cast<unsigned long long>(stats_->device_cycles));
      ++failures;
    }
    const double run_ms = median(spans.durations_ms("isa.CompiledModel::run"));
    out["isa.run_ms"].value = run_ms;
    out["isa.bind_ms"].value = run_ms - rp.host_ms;
    out["isa.device_cycles"].value =
        static_cast<double>(stats_->device_cycles);
    out["isa.move_cycles"].value = static_cast<double>(stats_->move_cycles);
    out["isa.host_ops"].value = static_cast<double>(stats_->host_ops);
    for (const auto& [fam, f] : rp.families) {
      out["isa.op." + fam + ".count"].value = static_cast<double>(f.count);
      out["isa.op." + fam + ".host_ms"].value = f.host_ms;
      out["isa.op." + fam + ".device_cycles"].value =
          static_cast<double>(f.device_cycles);
    }
    const FamilyStats& mm = rp.families.at("matmul");
    out["numerics.gemm_macs"].value = static_cast<double>(mm.macs);
    out["numerics.gemm_gmac_per_host_s"].value =
        static_cast<double>(mm.macs) / (mm.host_ms * 1e-3) / 1e9;

    out["fabric.gemm_latency_ns"].value = time_gemm_latency(spans);

    // The model's error against Table IV (not gated).
    const double freq = sys_.config().pu.freq_hz;
    double fp32_ms = 0.0;
    double all_ms = 0.0;
    for (const PaperPartition& p : kTable4) {
      const double ms = cycles_ms(rp.families.at(p.family).device_cycles, freq);
      const std::string base = std::string("paper.") + p.family;
      out[base + "_sim_ms"].value = ms;
      out[base + "_err_pct"].value = 100.0 * (ms / p.ms - 1.0);
      all_ms += ms;
      if (std::string(p.family) != "matmul") fp32_ms += ms;
    }
    const double share = 100.0 * fp32_ms / all_ms;
    out["paper.fp32_share_pct"].value = share;
    out["paper.fp32_share_err_pts"].value = share - kTable4Fp32SharePct;
    return failures;
  }

  std::vector<std::string> notes() const override {
    return {"deit-small: " + std::to_string(model_->program().size()) +
            " instructions, " +
            std::to_string(stats_ ? stats_->device_cycles : 0) +
            " device cycles per forward (single-threaded host)"};
  }

 private:
  static bool same_bits(const std::vector<float>& a,
                        const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  }

  /// Host ns per AcceleratorSystem::gemm_latency call, over the program's
  /// matmul shapes (the fabric cost model every GEMM consults).
  double time_gemm_latency(Spans& spans) const {
    constexpr int kReps = 50;
    std::uint64_t sink = 0;
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    {
      Span s(spans, "fabric.gemm_latency");
      for (int rep = 0; rep < kReps; ++rep) {
        for (const Instruction& inst : model_->program().instructions()) {
          if (inst.op != Opcode::kBfpMatmul) continue;
          sink += sys_.gemm_latency(inst.m, inst.k, inst.n).cycles;
          ++calls;
        }
      }
    }
    const double ns = ms_since(t0) * 1e6;
    if (sink == 0) std::fprintf(stderr, "gemm_latency returned no cycles\n");
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }

  AcceleratorSystem sys_;  // must outlive model_ (it keeps a pointer)
  ModelSpec spec_;
  VitConfig cfg_;
  std::optional<CompiledModel> model_;
  std::uint64_t seed_ = 0;
  std::vector<std::vector<float>> inputs_;
  std::vector<std::vector<float>> first_;  ///< first output per input
  std::optional<ExecutionStats> stats_;
  std::vector<float> legacy_out_;
  std::uint64_t legacy_cycles_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_deit_forward() {
  return std::make_unique<DeitForward>();
}

}  // namespace perfbench
