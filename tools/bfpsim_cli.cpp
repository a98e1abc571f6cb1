// bfpsim command-line driver: poke the accelerator model without writing
// C++. Subcommands:
//
//   bfpsim info
//   bfpsim gemm <M> <K> <N>
//   bfpsim softmax <ROWS> <COLS> [--softermax]
//   bfpsim deit <tiny|small|base> [--softermax]
//   bfpsim throughput
//   bfpsim batch <tiny|small|base> <BATCH>
//   bfpsim serve <tiny|small|base|test> [options]
//   bfpsim cluster <tiny|small|base|test> [options]
//   bfpsim fleet <tiny|small|base|test> [options]
//   bfpsim faults [options]
//
// Exit codes: 0 success, 1 runtime error, 2 unknown subcommand,
// 3 bad arguments to a known subcommand.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "compiler/compile.hpp"
#include "compiler/fuse.hpp"
#include "compiler/partition.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "runtime/decode_serve.hpp"
#include "fleet/fleet_loop.hpp"
#include "fleet/tenant.hpp"
#include "runtime/session.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/kernels.hpp"
#include "numerics/format/registry.hpp"
#include "numerics/nonlinear.hpp"
#include "pu/processing_unit.hpp"
#include "reliability/abft.hpp"
#include "resource/designs.hpp"
#include "serving/event_loop.hpp"

namespace {

using namespace bfpsim;

void print_usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bfpsim info\n"
      "  bfpsim gemm <M> <K> <N>\n"
      "  bfpsim softmax <ROWS> <COLS> [--softermax]\n"
      "  bfpsim deit <tiny|small|base> [--softermax]\n"
      "  bfpsim throughput\n"
      "  bfpsim batch <tiny|small|base> <BATCH>\n"
      "  bfpsim compile <spec|spec.json> [--cards N] [--no-fuse] [--json]\n"
      "  bfpsim verify <spec|spec.json> [--cards N] [--mode M] [--json]\n"
      "  bfpsim serve --model <spec|spec.json> [--turns S:P:G,...]\n"
      "         [--page-tokens N] [--arena-mb MB] [--batch B] [--json]\n"
      "  bfpsim serve <tiny|small|base|test> [--requests N] [--rate RPS]\n"
      "         [--closed CLIENTS] [--think-ms MS] [--seed S] [--queue D]\n"
      "         [--batch B] [--slo-ms MS] [--max-wait-us US] [--shed]\n"
      "         [--threads N] [--json] [--chrome-trace FILE]\n"
      "         [--cards N] [--replicas R] [--strategy pipeline|tensor]\n"
      "         [--mode MODE]\n"
      "  bfpsim cluster <tiny|small|base|test> [--cards LIST]\n"
      "         [--strategy pipeline|tensor|both] [--requests N]\n"
      "         [--threads N] [--json] [--mode MODE]\n"
      "  bfpsim fleet <tiny|small|base|test> [--requests N] [--rate RPS]\n"
      "         [--pattern poisson|diurnal|burst] [--peak-ratio X]\n"
      "         [--period-ms MS] [--burst-ratio X] [--burst-dwell-ms MS]\n"
      "         [--tenants NAME:TIER:WEIGHT[:SLO_MS],...]\n"
      "         [--classes CNTxCARDS{p|t},...  e.g. 2x1p,1x2t]\n"
      "         [--autoscale] [--min-replicas N] [--max-replicas N]\n"
      "         [--cold-start-us US] [--scale-interval-us US] [--seed S]\n"
      "         [--queue D] [--batch B] [--slo-ms MS] [--max-wait-us US]\n"
      "         [--shed] [--threads N] [--json] [--chrome-trace FILE]\n"
      "         [--mode MODE]\n"
      "  bfpsim faults [--rates LIST] [--m M] [--k K] [--n N] [--seed S]\n"
      "         [--retries R] [--threads N] [--json]\n"
      "  bfpsim resources [unit|system]\n"
      "\n"
      "\n"
      "numeric modes (--mode): bfp8 (default), fp8_e4m3, fp8_e5m2, bf16,\n"
      "lmul, sliced_fp32 — see `bfpsim info` for the registry\n"
      "\n"
      "exit codes: 0 ok, 1 runtime error, 2 unknown subcommand, 3 bad "
      "arguments\n");
}

/// Unknown subcommand (or no subcommand at all).
int usage() {
  print_usage();
  return 2;
}

/// Known subcommand, unusable arguments.
int bad_args(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  print_usage();
  return 3;
}

/// System configuration for a validated --mode name (Error -> exit 3 via
/// the subcommand catch blocks).
SystemConfig system_config_for_mode(const std::string& mode_name) {
  const NumericMode& mode = numeric_mode(mode_name);
  SystemConfig sys;
  sys.pu.mode = mode.name;
  sys.pu.format = mode.spec;
  return sys;
}

// Validated numeric parsing. std::atoi silently turns "8x" into 8 and
// "zero" into 0; these helpers demand full consumption of the token and a
// sane range, throwing Error (-> exit 3) otherwise.
long long parse_ll(const char* s, const char* what, long long lo,
                   long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') {
    throw Error(std::string(what) + ": '" + s + "' is not an integer");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    throw Error(std::string(what) + ": " + s + " out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

int parse_int(const char* s, const char* what, int lo, int hi) {
  return static_cast<int>(parse_ll(s, what, lo, hi));
}

std::uint64_t parse_u64(const char* s, const char* what) {
  if (*s == '-') {
    throw Error(std::string(what) + ": '" + s + "' must be non-negative");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    throw Error(std::string(what) + ": '" + s +
                "' is not an unsigned integer");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_double(const char* s, const char* what, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) {
    throw Error(std::string(what) + ": '" + s + "' is not a number");
  }
  if (!(v >= lo && v <= hi)) {
    throw Error(std::string(what) + ": " + s + " out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

VitConfig pick_config(const std::string& which) {
  if (which == "tiny") return deit_tiny();
  if (which == "small") return deit_small();
  if (which == "base") return deit_base();
  throw Error("unknown model '" + which + "' (tiny|small|base)");
}

int cmd_info() {
  const AcceleratorSystem sys;
  const auto& cfg = sys.config();
  std::printf("bfpsim — bfp8/fp32 multi-mode transformer accelerator model\n");
  std::printf("platform: %d units x %d arrays (8x8 PEs) @ %.0f MHz, "
              "2x256-bit AXI/unit\n",
              cfg.num_units, cfg.arrays_per_unit, cfg.pu.freq_hz / 1e6);
  std::printf("  bfp8 peak        : %8.1f GOPS   (Eqn 7)\n",
              sys.peak_bfp_system() / 1e9);
  std::printf("  bfp8 sustained   : %8.1f GOPS   (memory model; paper "
              "2052.06)\n",
              sys.sustained_bfp_system() / 1e9);
  std::printf("  fp32 theoretical : %8.2f GFLOPS (Eqn 8/10 @L=128; paper "
              "33.88)\n",
              sys.theoretical_fp32_system(128) / 1e9);
  std::printf("  fp32 sustained   : %8.2f GFLOPS (memory model)\n",
              sys.sustained_fp32_system() / 1e9);
  std::printf("numeric modes (--mode on serve/cluster/fleet):\n");
  for (const NumericMode& m : numeric_modes()) {
    std::printf("  %-12s %s — %s\n", m.name.c_str(),
                to_string(m.spec).c_str(), m.summary.c_str());
  }
  std::printf("registered model specs (--model on compile/serve, or a "
              ".json path):\n");
  for (const RegisteredSpec& s : registered_specs()) {
    std::printf("  %-14s %s\n", s.name.c_str(), s.summary.c_str());
  }
  return 0;
}

int cmd_gemm(int m, int k, int n) {
  const AcceleratorSystem sys;
  Rng rng(1);
  const auto a = rng.normal_vec(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 0.0F, 1.0F);
  const auto b = rng.normal_vec(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 0.0F, 1.0F);
  const GemmRun run = sys.gemm(a, m, k, b, n);

  std::vector<float> ref(static_cast<std::size_t>(m) *
                         static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int x = 0; x < k; ++x) {
        s += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
             b[static_cast<std::size_t>(x) * n + j];
      }
      ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(s);
    }
  }
  const double freq = sys.config().pu.freq_hz;
  std::printf("bfp8 GEMM %dx%dx%d:\n", m, k, n);
  std::printf("  SNR vs fp32 : %.1f dB\n",
              compute_error_stats(run.c, ref).snr_db);
  std::printf("  latency     : %.3f ms (%llu cycles)\n",
              static_cast<double>(run.compute_cycles) / freq * 1e3,
              static_cast<unsigned long long>(run.compute_cycles));
  std::printf("  sustained   : %.1f GOPS\n",
              static_cast<double>(2 * run.macs) /
                  (static_cast<double>(run.compute_cycles) / freq) / 1e9);
  return 0;
}

int cmd_softmax(int rows, int cols, bool softermax) {
  const AcceleratorSystem sys;
  Rng rng(2);
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0F,
      2.0F);
  Executor ex(sys);
  ex.set_tensor(kernels::kIn, rows, cols, x);
  const ExecutionStats stats =
      ex.run(kernels::softmax(rows, cols, softermax));
  const auto got = ex.tensor(kernels::kOut).data;
  const auto ref = softmax_reference(x, rows, cols);
  const double freq = sys.config().pu.freq_hz;
  std::printf("softmax %dx%d (%s exp):\n", rows, cols,
              softermax ? "softermax split" : "plain Chebyshev");
  std::printf("  max abs err : %.2e\n",
              compute_error_stats(got, ref).max_abs);
  std::printf("  device ops  : %llu\n",
              static_cast<unsigned long long>(stats.ops.device_flops()));
  std::printf("  host divs   : %llu\n",
              static_cast<unsigned long long>(stats.ops.host_div));
  std::printf("  latency     : %.3f ms\n",
              static_cast<double>(stats.device_cycles) / freq * 1e3);
  return 0;
}

int cmd_deit(const VitConfig& cfg, bool softermax) {
  const AcceleratorSystem sys;
  const WorkloadBreakdown b = workload_breakdown(
      compile_vit(cfg, sys, softermax), sys.config().pu.freq_hz);
  std::printf("%s workload partition%s:\n\n", cfg.name.c_str(),
              softermax ? " (with exp2 unit)" : "");
  TextTable t({"partition", "MOPs", "ops %", "latency (ms)", "latency %"});
  for (const auto& r : b.rows) {
    t.add_row({r.partition, fmt_double(r.mega_ops, 1),
               fmt_percent(100.0 * r.ops_proportion, 2),
               fmt_double(r.latency_ms, 3),
               fmt_percent(100.0 * r.latency_proportion, 2)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("total %.2f ms; fp32 share of latency %.1f%%\n",
              b.total_latency_ms, 100.0 * b.fp32_latency_share);
  return 0;
}

int cmd_throughput() {
  const AcceleratorSystem sys;
  std::printf("one unit, measured vs theoretical (Fig. 7):\n\n");
  TextTable t({"workload", "measured", "theoretical"});
  for (int n_x : {8, 16, 32, 64}) {
    t.add_row({"bfp8 N_X=" + std::to_string(n_x),
               fmt_double(sys.measure_bfp_unit(n_x).ops_per_sec() / 1e9, 1) +
                   " GOPS",
               fmt_double(sys.theoretical_bfp_unit(n_x) / 1e9, 1) + " GOPS"});
  }
  for (int l : {16, 32, 64, 128}) {
    t.add_row({"fp32 L=" + std::to_string(l),
               fmt_double(sys.measure_fp32_unit(l).ops_per_sec() / 1e9, 3) +
                   " GF",
               fmt_double(sys.theoretical_fp32_unit(l) / 1e9, 3) + " GF"});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_batch(const std::string& which, const VitConfig& cfg, int batch) {
  const AcceleratorSystem sys;
  const double freq = sys.config().pu.freq_hz;
  // One image on ONE unit: the program compiled for a single-unit system,
  // less its DMA moves — what Session::infer_batch charges per image.
  SystemConfig one = sys.config();
  one.num_units = 1;
  const AcceleratorSystem unit(one);
  const ExecutionStats price = compile_vit(cfg, unit).price();
  const std::uint64_t image_cycles = price.device_cycles - price.move_cycles;
  // The batch arrives at once; each image runs alone on the lowest free
  // unit.
  BackendSpec units;
  units.executors = sys.config().num_units;
  units.freq_hz = freq;
  units.passes.assign(static_cast<std::size_t>(batch), {0, image_cycles, 0});
  const ServeReport r = serve_events(
      units, batch_trace(batch, freq),
      {.queue_capacity = static_cast<std::size_t>(batch), .max_batch = 1});
  std::printf("%s, batch %d on %d units:\n", which.c_str(), batch,
              sys.config().num_units);
  std::printf("  per-image latency : %.2f ms\n",
              static_cast<double>(image_cycles) / freq * 1e3);
  std::printf("  throughput        : %.1f images/s\n", r.completed_rps);
  std::printf("  utilization       : %.1f%%\n", 100.0 * r.utilization);
  return 0;
}

int cmd_resources(const std::string& scope) {
  const DesignUsage d =
      scope == "system" ? full_system() : multimode_pu_breakdown();
  std::printf("%s resource utilization (analytical model):\n\n",
              scope == "system" ? "full-system" : "per-unit");
  TextTable t({"component", "LUT", "FF", "BRAM", "DSP"});
  for (const auto& c : d.components) {
    t.add_row({c.name, fmt_double(c.res.lut, 0), fmt_double(c.res.ff, 0),
               fmt_double(c.res.bram, 1), fmt_double(c.res.dsp, 0)});
  }
  const Resources total = d.total();
  t.add_separator();
  t.add_row({"total", fmt_double(total.lut, 0), fmt_double(total.ff, 0),
             fmt_double(total.bram, 1), fmt_double(total.dsp, 0)});
  std::printf("%s", t.to_string().c_str());
  return 0;
}

/// One partition strategy's price for `bfpsim compile --cards`.
struct CardsPrice {
  PartitionStrategy strategy = PartitionStrategy::kPipeline;
  std::string infeasible;    ///< partition_model's reason, or ""
  std::uint64_t cycles = 0;  ///< per request, when feasible
};

/// Each strategy's per-request cycles on a `cards`-card ring of `card`
/// accelerators: one probe_stream (the probe `bfpsim cluster` runs) on the
/// encoder spec's seeded weights, or why partition_model rejects it.
std::vector<CardsPrice> price_cards(const ModelSpec& spec,
                                    const SystemConfig& card, int cards) {
  const VitConfig cfg = vit_config_of(spec);
  const VitWeights weights = random_weights(cfg, spec.seed);
  std::vector<CardsPrice> prices;
  for (const PartitionStrategy s :
       {PartitionStrategy::kPipeline, PartitionStrategy::kTensor}) {
    CardsPrice p{s, partition_infeasibility(cfg, s, cards)};
    if (p.infeasible.empty()) {
      p.cycles =
          probe_stream(weights, ClusterTopology::ring(cards, {}, card), s, 1)
              .request_cycles;
    }
    prices.push_back(std::move(p));
  }
  return prices;
}

/// `bfpsim compile <spec>`: front-end smoke surface. Encoders build the
/// fused graph, compile it, and print the program's static price (plus,
/// when --cards > 1, each partition strategy's per-request cycles from one
/// ClusterExecutor probe forward on the spec's seeded weights, and the
/// cheaper strategy). Decoders print
/// the analytic per-token decode costs — the big bench models' graphs
/// would not fit host memory, and decode is the regime that matters;
/// --cards N > 1 on a decoder is a bad argument (multi-card pricing is
/// encoder-only).
int cmd_compile(int argc, char** argv) {
  const std::string which = argv[0];
  int cards = 1;
  bool fuse = true;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--cards") {
      cards = parse_int(next("--cards"), "--cards", 1, 1024);
    } else if (a == "--no-fuse") {
      fuse = false;
    } else if (a == "--json") {
      json = true;
    } else {
      throw Error("unknown compile option '" + a + "'");
    }
  }

  const ModelSpec spec = load_model_spec(which);
  const AcceleratorSystem sys(system_config_for_mode("bfp8"));

  if (spec.family == SpecFamily::kDecoder) {
    if (cards > 1) {
      throw Error("compile --cards: '" + spec.name +
                  "' is a decoder spec; multi-card pricing is encoder-only");
    }
    const SpecDecodeCosts c = spec_decode_costs(spec, sys, spec.context);
    if (json) {
      std::printf("{\"model\":\"%s\",\"params\":%lld,"
                  "\"compute_cycles\":%llu,\"bandwidth_cycles\":%llu,"
                  "\"cycles_per_token\":%llu,\"bandwidth_bound\":%s}\n",
                  spec.name.c_str(), static_cast<long long>(c.params),
                  static_cast<unsigned long long>(c.compute_cycles),
                  static_cast<unsigned long long>(c.bandwidth_cycles),
                  static_cast<unsigned long long>(c.cycles_per_token),
                  c.bandwidth_bound ? "true" : "false");
      return 0;
    }
    std::printf("decoder spec %s: d=%d depth=%d heads=%d kv_heads=%d "
                "ctx=%d\n",
                spec.name.c_str(), spec.d_model, spec.depth, spec.heads,
                spec.kv_heads, spec.context);
    std::printf("  params            : %.1f M\n",
                static_cast<double>(c.params) / 1e6);
    std::printf("  compute cycles/tok: %llu\n",
                static_cast<unsigned long long>(c.compute_cycles));
    std::printf("  stream cycles/tok : %llu\n",
                static_cast<unsigned long long>(c.bandwidth_cycles));
    std::printf("  cycles/token      : %llu (%s-bound)\n",
                static_cast<unsigned long long>(c.cycles_per_token),
                c.bandwidth_bound ? "bandwidth" : "compute");
    return 0;
  }

  // Price the cards first: the probe's weights are freed before compile()
  // materializes its own copy, and --json still emits one document.
  std::vector<CardsPrice> prices;
  const CardsPrice* best = nullptr;
  if (cards > 1) {
    prices = price_cards(spec, sys.config(), cards);
    for (const CardsPrice& p : prices) {
      if (p.infeasible.empty() &&
          (best == nullptr || p.cycles < best->cycles)) {
        best = &p;
      }
    }
    if (best == nullptr) {
      throw ShapeError("compile: neither strategy partitions " + spec.name +
                       " across " + std::to_string(cards) + " cards (" +
                       prices[0].infeasible + "; " + prices[1].infeasible +
                       ")");
    }
  }

  FusionStats fs;
  const Graph g = fuse ? build_fused_spec_graph(spec, 0, &fs)
                       : build_spec_graph(spec);
  CompileOptions opts;
  opts.macro_kernels = fuse;
  const CompiledModel cm = compile(g, sys, opts);
  if (json) {
    auto json_cycles = [](const CardsPrice& p) {
      return p.infeasible.empty() ? std::to_string(p.cycles)
                                  : std::string("null");
    };
    std::printf("{\"model\":\"%s\",\"nodes\":%zu,\"instructions\":%zu,"
                "\"cycles\":%llu",
                spec.name.c_str(), g.size(), cm.program().size(),
                static_cast<unsigned long long>(cm.price().device_cycles));
    if (best != nullptr) {
      std::printf(",\"schedule_search\":{\"cards\":%d,\"strategy\":\"%s\","
                  "\"cycles\":%llu,\"uniform_pipeline_cycles\":%s,"
                  "\"uniform_tensor_cycles\":%s}",
                  cards, to_string(best->strategy),
                  static_cast<unsigned long long>(best->cycles),
                  json_cycles(prices[0]).c_str(),
                  json_cycles(prices[1]).c_str());
    }
    std::printf("}\n");
  } else {
    std::printf("encoder spec %s: %zu graph nodes -> %zu instructions\n",
                spec.name.c_str(), g.size(), cm.program().size());
    if (fuse) {
      std::printf("  fusion: %d qkv merges, %d bias+act folds, %d residual "
                  "absorptions (%d -> %d nodes)\n",
                  fs.qkv_merges, fs.bias_act_folds,
                  fs.residual_absorptions, fs.nodes_in, fs.nodes_out);
    }
    std::printf("  cycles/request: %llu\n",
                static_cast<unsigned long long>(cm.price().device_cycles));
    for (const CardsPrice& p : prices) {
      if (p.infeasible.empty()) {
        std::printf("  %d-card %-8s: %llu cycles/request\n", cards,
                    to_string(p.strategy),
                    static_cast<unsigned long long>(p.cycles));
      } else {
        std::printf("  %d-card %-8s: infeasible (%s)\n", cards,
                    to_string(p.strategy), p.infeasible.c_str());
      }
    }
    if (best != nullptr) {
      std::printf("  cheaper strategy: %s\n", to_string(best->strategy));
    }
  }
  return 0;
}

/// `bfpsim verify <spec>`: static verification — spec-level geometry,
/// carrier-bound, and paged-KV arena checks, plus full abstract
/// interpretation of the compiled program when the graph is small enough
/// to materialize. Exit 0 when no error-severity finding, 1 otherwise.
int cmd_verify(int argc, char** argv) {
  const std::string which = argv[0];
  int cards = 1;
  std::string mode_name = "bfp8";
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--cards") {
      cards = parse_int(next("--cards"), "--cards", 1, 1024);
    } else if (a == "--mode") {
      mode_name = next("--mode");
    } else if (a == "--json") {
      json = true;
    } else {
      throw Error("unknown verify option '" + a + "'");
    }
  }
  const ModelSpec spec = load_model_spec(which);
  const AcceleratorSystem sys(system_config_for_mode(mode_name));
  const VerifyReport rep = verify_model_spec(spec, sys, cards);
  if (json) {
    std::printf("%s\n", rep.to_json().c_str());
  } else {
    std::printf("%s mode=%s cards=%d\n%s\n", spec.name.c_str(),
                mode_name.c_str(), cards, rep.summary().c_str());
  }
  return rep.clean() ? 0 : 1;
}

/// `bfpsim serve --model <spec>`: multi-turn paged-KV decode serving.
int cmd_serve_model(int argc, char** argv) {
  std::string which;
  std::string turns_arg;  // empty = derived from the spec's context
  DecodeServeConfig cfg;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--model") {
      which = next("--model");
    } else if (a == "--turns") {
      turns_arg = next("--turns");
    } else if (a == "--page-tokens") {
      cfg.page_tokens =
          parse_int(next("--page-tokens"), "--page-tokens", 1, 1 << 16);
    } else if (a == "--arena-mb") {
      const std::uint64_t mb = parse_u64(next("--arena-mb"), "--arena-mb");
      if (mb > std::numeric_limits<std::uint64_t>::max() >> 20) {
        throw Error("--arena-mb: " + std::to_string(mb) +
                    " MiB overflows a 64-bit byte count");
      }
      cfg.arena_bytes = mb << 20;
    } else if (a == "--batch") {
      cfg.batch = parse_int(next("--batch"), "--batch", 1, 1 << 16);
    } else if (a == "--json") {
      json = true;
    } else {
      throw Error("unknown serve --model option '" + a + "'");
    }
  }
  if (which.empty()) throw Error("--model needs a value");

  const ModelSpec spec = load_model_spec(which);
  if (spec.family != SpecFamily::kDecoder) {
    throw Error("serve --model needs a decoder spec; '" + spec.name +
                "' is an encoder (use `bfpsim serve tiny|small|base`)");
  }
  const AcceleratorSystem sys(system_config_for_mode("bfp8"));

  if (turns_arg.empty()) {
    // Two interleaved conversations, two turns each, sized so every
    // sequence ends at 3/4 of the context window. With the default arena
    // (one full-context sequence) the interleaving forces evictions.
    const int p = std::max(1, spec.context / 4);
    const int g = std::max(1, spec.context / 8);
    const std::string t =
        std::to_string(p) + ":" + std::to_string(g);
    turns_arg = "0:" + t + ",1:" + t + ",0:" + t + ",1:" + t;
  }

  // --turns SEQ:PROMPT:GEN,...
  std::vector<ServeTurn> turns;
  std::stringstream ss(turns_arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    ServeTurn t;
    const auto c1 = tok.find(':');
    const auto c2 = c1 == std::string::npos ? c1 : tok.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      throw Error("--turns entry '" + tok + "' is not SEQ:PROMPT:GEN");
    }
    t.seq = parse_int(tok.substr(0, c1).c_str(), "--turns seq", 0, 1 << 20);
    t.prompt_tokens = parse_int(tok.substr(c1 + 1, c2 - c1 - 1).c_str(),
                                "--turns prompt", 0, 1 << 26);
    t.gen_tokens =
        parse_int(tok.substr(c2 + 1).c_str(), "--turns gen", 0, 1 << 26);
    turns.push_back(t);
  }
  if (turns.empty()) throw Error("--turns is empty");

  const DecodeServeReport rep = serve_decode(spec, sys, turns, cfg);
  if (json) {
    std::printf("{\"model\":\"%s\",\"turns\":%zu,\"tokens\":%llu,"
                "\"cycles\":%llu,\"tokens_per_second\":%.1f,"
                "\"kv\":{\"hits\":%llu,\"cold\":%llu,\"reloads\":%llu,"
                "\"evictions\":%llu,\"hit_rate\":%.4f,"
                "\"page_bytes\":%llu}}\n",
                rep.model.c_str(), rep.turns.size(),
                static_cast<unsigned long long>(rep.total_tokens),
                static_cast<unsigned long long>(rep.total_cycles),
                rep.tokens_per_second,
                static_cast<unsigned long long>(rep.kv.hits),
                static_cast<unsigned long long>(rep.kv.cold_allocs),
                static_cast<unsigned long long>(rep.kv.reloads),
                static_cast<unsigned long long>(rep.kv.evictions),
                rep.kv.hit_rate(),
                static_cast<unsigned long long>(rep.kv_page_bytes));
    return 0;
  }
  std::printf("paged-KV decode serving: %s (page = %d tokens, %llu B)\n",
              rep.model.c_str(), cfg.page_tokens,
              static_cast<unsigned long long>(rep.kv_page_bytes));
  std::printf("%s", rep.table().c_str());
  return 0;
}

/// Modelled requests/s of a fleet's initial replicas: one probed sharded
/// forward per class that starts with any.
double initial_fleet_rps(const Session::FleetConfig& fleet,
                         const VitWeights& weights, const SystemConfig& card,
                         std::uint64_t seed, ThreadPool& pool) {
  double capacity_rps = 0.0;
  for (const Session::FleetClassConfig& c : fleet.classes) {
    if (c.initial_replicas == 0) continue;
    const ClusterTopology topo =
        ClusterTopology::ring(c.cards, LinkConfig{}, card);
    const ClusterExecutor exec(weights, topo, c.strategy);
    ClusterStats stats;
    (void)exec.forward(random_embeddings(weights.cfg, seed), &stats, &pool);
    capacity_rps += static_cast<double>(c.initial_replicas) *
                    card.pu.freq_hz /
                    static_cast<double>(stats.total_cycles());
  }
  return capacity_rps;
}

/// --chrome-trace FILE: an event trace that records only when a path is
/// given, written there as Chrome JSON.
class ChromeTraceFile {
 public:
  explicit ChromeTraceFile(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      events_.enable(true);
      events_.set_capacity(1 << 20);
    }
  }

  Trace* sink() { return path_.empty() ? nullptr : &events_; }

  void write() const {
    if (path_.empty()) return;
    std::ofstream os(path_);
    if (!os) throw Error("cannot write '" + path_ + "'");
    os << events_.to_chrome_json();
    std::fprintf(stderr, "chrome trace: %s (%zu events, %llu dropped)\n",
                 path_.c_str(), events_.events().size(),
                 static_cast<unsigned long long>(events_.dropped()));
  }

 private:
  std::string path_;
  Trace events_;
};

/// Online serving demo: replay a seeded arrival trace through the
/// virtual-time event loop and print the latency-percentile report.
int cmd_serve(int argc, char** argv) {
  // argv[0] is the model name; flags follow.
  const std::string which = argv[0];
  int requests = 32;
  double rate = 0.0;  // 0 = auto: 70% of modelled system capacity
  int closed_clients = 0;
  double think_ms = 1.0;
  std::uint64_t seed = 1;
  ServePolicy policy;
  double max_wait_us = -1.0;
  int threads = 1;
  bool json = false;
  std::string chrome_path;
  int cards = 1;
  int replicas = 1;
  PartitionStrategy strategy = PartitionStrategy::kPipeline;
  std::string mode_name = "bfp8";

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--mode") {
      mode_name = next("--mode");
    } else if (a == "--cards") {
      cards = parse_int(next("--cards"), "--cards", 1, 1024);
    } else if (a == "--replicas") {
      replicas = parse_int(next("--replicas"), "--replicas", 1, 1024);
    } else if (a == "--strategy") {
      const std::string s = next("--strategy");
      if (s == "pipeline") {
        strategy = PartitionStrategy::kPipeline;
      } else if (s == "tensor") {
        strategy = PartitionStrategy::kTensor;
      } else {
        throw Error("--strategy must be pipeline or tensor");
      }
    } else if (a == "--requests") {
      requests = parse_int(next("--requests"), "--requests", 1, 1 << 20);
    } else if (a == "--rate") {
      rate = parse_double(next("--rate"), "--rate", 0.0, 1e12);
    } else if (a == "--closed") {
      closed_clients = parse_int(next("--closed"), "--closed", 0, 1 << 20);
    } else if (a == "--think-ms") {
      think_ms = parse_double(next("--think-ms"), "--think-ms", 0.0, 1e9);
    } else if (a == "--seed") {
      seed = parse_u64(next("--seed"), "--seed");
    } else if (a == "--queue") {
      policy.queue_capacity = static_cast<std::size_t>(
          parse_int(next("--queue"), "--queue", 1, 1 << 20));
    } else if (a == "--batch") {
      policy.max_batch = parse_int(next("--batch"), "--batch", 1, 1 << 20);
    } else if (a == "--slo-ms") {
      policy.slo_ms = parse_double(next("--slo-ms"), "--slo-ms", 0.0, 1e9);
    } else if (a == "--max-wait-us") {
      max_wait_us =
          parse_double(next("--max-wait-us"), "--max-wait-us", 0.0, 1e12);
    } else if (a == "--shed") {
      policy.drop_policy = DropPolicy::kShedOldest;
    } else if (a == "--threads") {
      threads = parse_int(next("--threads"), "--threads", 0, 1024);
    } else if (a == "--json") {
      json = true;
    } else if (a == "--chrome-trace") {
      chrome_path = next("--chrome-trace");
    } else {
      throw Error("unknown serve option '" + a + "'");
    }
  }
  if (requests < 1) throw Error("--requests must be >= 1");
  if (cards < 1) throw Error("--cards must be >= 1");
  if (replicas < 1) throw Error("--replicas must be >= 1");
  const bool clustered = cards > 1 || replicas > 1;

  const VitConfig cfg = which == "test" ? vit_test_tiny() : pick_config(which);
  const AcceleratorSystem sys(system_config_for_mode(mode_name));
  const VitModel model{random_weights(cfg, 42)};
  const double freq = sys.config().pu.freq_hz;
  // A replicated sharded cluster is a one-class fleet.
  Session::FleetConfig fleet;
  fleet.classes = {{cards, strategy, replicas, replicas}};

  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  ArrivalTrace trace;
  if (closed_clients > 0) {
    trace = closed_loop_trace(closed_clients, requests, think_ms, seed, freq);
  } else {
    if (rate <= 0.0) {
      // Auto rate: probe one forward for the modelled per-request cycles
      // and offer 70% of the resulting capacity (multi-unit single card,
      // or the replica pool).
      double capacity_rps = 0.0;
      if (clustered) {
        capacity_rps = initial_fleet_rps(fleet, model.weights(),
                                         sys.config(), seed, pool);
      } else {
        ForwardStats stats;
        SystemConfig one = sys.config();
        one.num_units = 1;
        const AcceleratorSystem unit(one);
        (void)model.forward_mixed(random_embeddings(cfg, seed), unit,
                                  &stats);
        capacity_rps = static_cast<double>(sys.config().num_units) * freq /
                       static_cast<double>(stats.total_cycles());
      }
      rate = 0.7 * capacity_rps;
    }
    trace = poisson_trace(requests, rate, seed, freq);
  }
  if (max_wait_us >= 0.0) {
    policy.max_wait_cycles =
        static_cast<std::uint64_t>(max_wait_us * 1e-6 * freq);
  }

  ChromeTraceFile chrome(chrome_path);
  ServeReport rep;
  if (clustered) {
    Session session(sys.config());
    const ModelId id = session.deploy(model.weights(), cfg.name);
    rep = session.serve_fleet(id, fleet, trace, policy, &pool, chrome.sink())
              .report.serve;
  } else {
    rep = serve_online(model, sys, trace, policy, &pool, chrome.sink())
              .report;
  }

  if (json) {
    std::printf("%s\n", rep.to_json().c_str());
  } else {
    if (clustered) {
      std::printf(
          "online serving: %s, %d requests on %d x %d-card %s replicas\n",
          cfg.name.c_str(), requests, replicas, cards, to_string(strategy));
    } else {
      std::printf("online serving: %s, %d requests on %d units (%s)\n",
                  cfg.name.c_str(), requests, sys.config().num_units,
                  closed_clients > 0
                      ? ("closed loop, " + std::to_string(closed_clients) +
                         " clients")
                            .c_str()
                      : "open loop, Poisson");
    }
    if (closed_clients == 0) {
      std::printf("  offered rate     : %.1f req/s\n", trace.offered_rps);
    }
    std::printf("  completed        : %zu (%zu rejected/shed)\n",
                rep.records.size(), rep.rejected_ids.size());
    std::printf("  throughput       : %.1f req/s of virtual time\n",
                rep.completed_rps);
    std::printf("  latency p50      : %.3f ms\n",
                rep.cycles_to_ms(rep.latency.p50));
    std::printf("  latency p95      : %.3f ms\n",
                rep.cycles_to_ms(rep.latency.p95));
    std::printf("  latency p99      : %.3f ms\n",
                rep.cycles_to_ms(rep.latency.p99));
    std::printf("  SLO %.1f ms      : %zu violations\n", policy.slo_ms,
                rep.slo_violations);
    std::printf("  peak queue depth : %zu (capacity %zu)\n",
                rep.max_queue_depth, policy.queue_capacity);
    std::printf("  unit utilization : %.1f%%\n", 100.0 * rep.utilization);
  }
  chrome.write();
  return 0;
}

/// Multi-card scaling sweep: probe one sharded forward per (cards,
/// strategy) configuration, project an R-request stream analytically, and
/// report throughput, speedup over one card, per-card utilization, and the
/// collective-cycle share.
int cmd_cluster(int argc, char** argv) {
  const std::string which = argv[0];
  std::string cards_list = "1,2,4";
  std::string strategy_arg = "both";
  int requests = 16;
  int threads = 1;
  bool json = false;
  std::string mode_name = "bfp8";

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--mode") {
      mode_name = next("--mode");
    } else if (a == "--cards") {
      cards_list = next("--cards");
    } else if (a == "--strategy") {
      strategy_arg = next("--strategy");
    } else if (a == "--requests") {
      requests = parse_int(next("--requests"), "--requests", 1, 1 << 20);
    } else if (a == "--threads") {
      threads = parse_int(next("--threads"), "--threads", 0, 1024);
    } else if (a == "--json") {
      json = true;
    } else {
      throw Error("unknown cluster option '" + a + "'");
    }
  }
  if (requests < 1) throw Error("--requests must be >= 1");
  std::vector<int> card_counts;
  {
    std::stringstream ss(cards_list);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      card_counts.push_back(parse_int(tok.c_str(), "--cards entry", 1, 1024));
    }
  }
  if (card_counts.empty()) throw Error("--cards needs at least one entry");
  std::vector<PartitionStrategy> strategies;
  if (strategy_arg == "pipeline" || strategy_arg == "both") {
    strategies.push_back(PartitionStrategy::kPipeline);
  }
  if (strategy_arg == "tensor" || strategy_arg == "both") {
    strategies.push_back(PartitionStrategy::kTensor);
  }
  if (strategies.empty()) {
    throw Error("--strategy must be pipeline, tensor, or both");
  }

  const VitConfig cfg = which == "test" ? vit_test_tiny() : pick_config(which);
  const SystemConfig card = system_config_for_mode(mode_name);
  const VitWeights weights = random_weights(cfg, 42);
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  struct Row {
    int cards = 0;
    PartitionStrategy strategy = PartitionStrategy::kPipeline;
    StreamTiming timing;
  };
  std::vector<Row> rows;
  // 1-card pipeline projection
  const double base_rps =
      probe_stream(weights, ClusterTopology::ring(1, {}, card),
                   PartitionStrategy::kPipeline, requests, &pool)
          .requests_per_second;

  for (const int cards : card_counts) {
    for (const PartitionStrategy strategy : strategies) {
      if (cards == 1 && strategy == PartitionStrategy::kTensor) continue;
      const std::string why = partition_infeasibility(cfg, strategy, cards);
      if (!why.empty()) {
        if (!json) {
          std::fprintf(stderr, "skip %d-card %s: partition_model: %s\n",
                       cards, to_string(strategy), why.c_str());
        }
        continue;
      }
      rows.push_back({cards, strategy,
                      probe_stream(weights,
                                   ClusterTopology::ring(cards, {}, card),
                                   strategy, requests, &pool)});
    }
  }

  if (json) {
    std::ostringstream os;
    os << "{\"model\":\"" << cfg.name << "\",\"requests\":" << requests
       << ",\"configs\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i != 0) os << ",";
      os << "{\"cards\":" << r.cards << ",\"strategy\":\""
         << to_string(r.strategy) << "\""
         << ",\"request_cycles\":" << r.timing.request_cycles
         << ",\"makespan_cycles\":" << r.timing.makespan_cycles
         << ",\"requests_per_second\":" << r.timing.requests_per_second
         << ",\"speedup\":"
         << (base_rps > 0.0 ? r.timing.requests_per_second / base_rps : 0.0)
         << ",\"collective_share\":" << r.timing.collective_share
         << ",\"collective_bytes\":" << r.timing.collective_bytes
         << ",\"card_utilization\":[";
      for (std::size_t c = 0; c < r.timing.card_utilization.size(); ++c) {
        if (c != 0) os << ",";
        os << r.timing.card_utilization[c];
      }
      os << "]}";
    }
    os << "]}";
    std::printf("%s\n", os.str().c_str());
  } else {
    std::printf("cluster scaling: %s, %d-request stream, ring links\n\n",
                cfg.name.c_str(), requests);
    TextTable t({"cards", "strategy", "req/s", "speedup", "coll %",
                 "min util", "max util"});
    for (const Row& r : rows) {
      double umin = 1.0;
      double umax = 0.0;
      for (const double u : r.timing.card_utilization) {
        umin = std::min(umin, u);
        umax = std::max(umax, u);
      }
      t.add_row({std::to_string(r.cards), to_string(r.strategy),
                 fmt_double(r.timing.requests_per_second, 1),
                 fmt_double(base_rps > 0.0
                                ? r.timing.requests_per_second / base_rps
                                : 0.0,
                            2) +
                     "x",
                 fmt_percent(100.0 * r.timing.collective_share, 1),
                 fmt_percent(100.0 * umin, 1), fmt_percent(100.0 * umax, 1)});
    }
    std::printf("%s", t.to_string().c_str());
  }
  return 0;
}

/// Fleet-scale serving: heterogeneous replica classes behind one tiered,
/// quota'd admission queue, with the virtual-time autoscaler growing and
/// shrinking the fleet against a Poisson, diurnal, or bursty trace.
int cmd_fleet(int argc, char** argv) {
  const std::string which = argv[0];
  int requests = 48;
  double rate = 0.0;  // 0 = auto: 70% of the initial fleet's capacity
  std::string pattern = "poisson";
  double peak_ratio = 3.0;
  double period_ms = 50.0;
  double burst_ratio = 4.0;
  double burst_dwell_ms = 5.0;
  std::string tenants_arg;
  std::string classes_arg = "2x1p";
  bool autoscale = false;
  int min_replicas = 1;
  int max_replicas = 8;
  double cold_start_us = 2000.0;
  double scale_interval_us = 1000.0;
  std::uint64_t seed = 1;
  ServePolicy policy;
  double max_wait_us = -1.0;
  int threads = 1;
  bool json = false;
  std::string chrome_path;
  std::string mode_name = "bfp8";

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--mode") {
      mode_name = next("--mode");
    } else if (a == "--requests") {
      requests = parse_int(next("--requests"), "--requests", 1, 1 << 20);
    } else if (a == "--rate") {
      rate = parse_double(next("--rate"), "--rate", 0.0, 1e12);
    } else if (a == "--pattern") {
      pattern = next("--pattern");
      if (pattern != "poisson" && pattern != "diurnal" &&
          pattern != "burst") {
        throw Error("--pattern must be poisson, diurnal, or burst");
      }
    } else if (a == "--peak-ratio") {
      peak_ratio =
          parse_double(next("--peak-ratio"), "--peak-ratio", 1.0, 1e6);
    } else if (a == "--period-ms") {
      period_ms =
          parse_double(next("--period-ms"), "--period-ms", 1e-3, 1e9);
    } else if (a == "--burst-ratio") {
      burst_ratio =
          parse_double(next("--burst-ratio"), "--burst-ratio", 1.0, 1e6);
    } else if (a == "--burst-dwell-ms") {
      burst_dwell_ms = parse_double(next("--burst-dwell-ms"),
                                    "--burst-dwell-ms", 1e-3, 1e9);
    } else if (a == "--tenants") {
      tenants_arg = next("--tenants");
    } else if (a == "--classes") {
      classes_arg = next("--classes");
    } else if (a == "--autoscale") {
      autoscale = true;
    } else if (a == "--min-replicas") {
      min_replicas =
          parse_int(next("--min-replicas"), "--min-replicas", 1, 1024);
    } else if (a == "--max-replicas") {
      max_replicas =
          parse_int(next("--max-replicas"), "--max-replicas", 1, 1024);
    } else if (a == "--cold-start-us") {
      cold_start_us = parse_double(next("--cold-start-us"),
                                   "--cold-start-us", 0.0, 1e12);
    } else if (a == "--scale-interval-us") {
      scale_interval_us = parse_double(next("--scale-interval-us"),
                                       "--scale-interval-us", 1e-3, 1e12);
    } else if (a == "--seed") {
      seed = parse_u64(next("--seed"), "--seed");
    } else if (a == "--queue") {
      policy.queue_capacity = static_cast<std::size_t>(
          parse_int(next("--queue"), "--queue", 1, 1 << 20));
    } else if (a == "--batch") {
      policy.max_batch = parse_int(next("--batch"), "--batch", 1, 1 << 20);
    } else if (a == "--slo-ms") {
      policy.slo_ms = parse_double(next("--slo-ms"), "--slo-ms", 0.0, 1e9);
    } else if (a == "--max-wait-us") {
      max_wait_us =
          parse_double(next("--max-wait-us"), "--max-wait-us", 0.0, 1e12);
    } else if (a == "--shed") {
      policy.drop_policy = DropPolicy::kShedOldest;
    } else if (a == "--threads") {
      threads = parse_int(next("--threads"), "--threads", 0, 1024);
    } else if (a == "--json") {
      json = true;
    } else if (a == "--chrome-trace") {
      chrome_path = next("--chrome-trace");
    } else {
      throw Error("unknown fleet option '" + a + "'");
    }
  }

  // --classes CNTxCARDS{p|t},... : replica classes, e.g. "2x1p,1x2t" =
  // two 1-card pipeline replicas plus one 2-card tensor replica.
  Session::FleetConfig fleet_cfg;
  fleet_cfg.classes.clear();
  {
    std::stringstream ss(classes_arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const auto xpos = tok.find('x');
      if (xpos == std::string::npos || xpos == 0 || xpos + 2 > tok.size()) {
        throw Error("--classes entry '" + tok + "' is not CNTxCARDS{p|t}");
      }
      const char sc = tok.back();
      if (sc != 'p' && sc != 't') {
        throw Error("--classes entry '" + tok +
                    "' must end in p (pipeline) or t (tensor)");
      }
      Session::FleetClassConfig c;
      c.initial_replicas = parse_int(tok.substr(0, xpos).c_str(),
                                     "--classes count", 0, 1024);
      c.cards = parse_int(
          tok.substr(xpos + 1, tok.size() - xpos - 2).c_str(),
          "--classes cards", 1, 1024);
      c.strategy = sc == 'p' ? PartitionStrategy::kPipeline
                             : PartitionStrategy::kTensor;
      c.max_replicas = std::max(max_replicas, std::max(1, c.initial_replicas));
      fleet_cfg.classes.push_back(c);
    }
  }
  if (fleet_cfg.classes.empty()) {
    throw Error("--classes needs at least one entry");
  }

  // --tenants NAME:TIER:WEIGHT[:SLO_MS],... : tier 0 is the highest
  // priority; weights set admission-quota shares.
  {
    std::stringstream ss(tenants_arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      std::stringstream fs(tok);
      std::string name, tier_s, weight_s, slo_s;
      if (!std::getline(fs, name, ':') || !std::getline(fs, tier_s, ':') ||
          !std::getline(fs, weight_s, ':')) {
        throw Error("--tenants entry '" + tok +
                    "' is not NAME:TIER:WEIGHT[:SLO_MS]");
      }
      TenantSpec t;
      t.name = name;
      t.tier = parse_int(tier_s.c_str(), "--tenants tier", 0, 1024);
      t.weight =
          parse_double(weight_s.c_str(), "--tenants weight", 1e-6, 1e9);
      if (std::getline(fs, slo_s, ':')) {
        t.slo_ms = parse_double(slo_s.c_str(), "--tenants slo_ms", 0.0, 1e9);
      }
      fleet_cfg.tenants.tenants.push_back(std::move(t));
    }
  }

  const VitConfig cfg = which == "test" ? vit_test_tiny() : pick_config(which);
  Session session(system_config_for_mode(mode_name));
  const double freq = session.system().config().pu.freq_hz;
  const VitWeights weights = random_weights(cfg, 42);
  const ModelId model = session.deploy(weights, cfg.name);

  fleet_cfg.autoscaler.enabled = autoscale;
  fleet_cfg.autoscaler.min_replicas = min_replicas;
  fleet_cfg.autoscaler.cold_start_cycles =
      static_cast<std::uint64_t>(cold_start_us * 1e-6 * freq);
  fleet_cfg.autoscaler.interval_cycles = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(scale_interval_us * 1e-6 * freq));
  fleet_cfg.autoscaler.cooldown_cycles = fleet_cfg.autoscaler.interval_cycles;

  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  if (rate <= 0.0) {
    // Auto rate: probe one sharded forward per class and offer 70% of the
    // initial fleet's aggregate capacity.
    const double capacity_rps = initial_fleet_rps(
        fleet_cfg, weights, session.system().config(), seed, pool);
    if (capacity_rps <= 0.0) throw Error("--rate required (no probe basis)");
    rate = 0.7 * capacity_rps;
  }

  ArrivalTrace arrival_trace;
  if (pattern == "diurnal") {
    const double base = 2.0 * rate / (1.0 + peak_ratio);
    arrival_trace = diurnal_trace(requests, base, base * peak_ratio,
                                  period_ms * 1e-3, seed, freq);
  } else if (pattern == "burst") {
    const double low = 2.0 * rate / (1.0 + burst_ratio);
    arrival_trace =
        mmpp_trace(requests, low, low * burst_ratio, burst_dwell_ms * 1e-3,
                   burst_dwell_ms * 1e-3, seed, freq);
  } else {
    arrival_trace = poisson_trace(requests, rate, seed, freq);
  }
  assign_tenants(&arrival_trace, fleet_cfg.tenants);
  if (max_wait_us >= 0.0) {
    policy.max_wait_cycles =
        static_cast<std::uint64_t>(max_wait_us * 1e-6 * freq);
  }

  ChromeTraceFile chrome(chrome_path);
  const Session::FleetServeResult r = session.serve_fleet(
      model, fleet_cfg, arrival_trace, policy, &pool, chrome.sink());
  const ServeReport& rep = r.report.serve;

  if (json) {
    std::printf("%s\n", r.report.to_json().c_str());
  } else {
    std::printf("fleet serving: %s, %d requests, %s arrivals\n",
                cfg.name.c_str(), requests, pattern.c_str());
    for (const FleetClassInfo& c : r.report.classes) {
      std::printf("  class %-12s: %d initial, max %d\n", c.name.c_str(),
                  c.initial_replicas, c.max_replicas);
    }
    std::printf("  offered rate     : %.1f req/s\n",
                arrival_trace.offered_rps);
    std::printf("  completed        : %zu (%zu rejected/shed)\n",
                rep.records.size(), rep.rejected_ids.size());
    std::printf("  latency p50/p95  : %.3f / %.3f ms\n",
                rep.cycles_to_ms(rep.latency.p50),
                rep.cycles_to_ms(rep.latency.p95));
    std::printf("  SLO %.1f ms      : %zu violations\n", policy.slo_ms,
                rep.slo_violations);
    std::printf("  autoscaler       : %s, %zu scale events, peak %d "
                "replicas\n",
                autoscale ? "on" : "off", r.report.scale_events.size(),
                r.report.peak_replicas);
    std::printf("  replica-cycles   : %llu (utilization %.1f%%)\n",
                static_cast<unsigned long long>(r.report.replica_cycles),
                100.0 * rep.utilization);
    for (const TenantBreakdown& t : rep.tenants) {
      std::printf("  tenant %-10s: tier %d, %zu done, %zu rejected, "
                  "%zu SLO misses, p95 %.3f ms\n",
                  t.name.c_str(), t.tier, t.completed, t.rejected,
                  t.slo_violations, rep.cycles_to_ms(t.latency.p95));
    }
  }
  chrome.write();
  return 0;
}

/// Fault-injection sweep: run one seeded GEMM per (PSU fault rate,
/// protection mode) cell and report detection coverage, corrections and
/// silent data corruption against the fault-free run.
int cmd_faults(int argc, char** argv) {
  std::string rates_list = "1e-5,1e-4,1e-3";
  int m = 48;
  int k = 64;
  int n = 32;
  std::uint64_t seed = 1;
  int retries = 2;
  int threads = 1;
  bool json = false;

  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (a == "--rates") {
      rates_list = next("--rates");
    } else if (a == "--m") {
      m = parse_int(next("--m"), "--m", 1, 4096);
    } else if (a == "--k") {
      k = parse_int(next("--k"), "--k", 1, 4096);
    } else if (a == "--n") {
      n = parse_int(next("--n"), "--n", 1, 4096);
    } else if (a == "--seed") {
      seed = parse_u64(next("--seed"), "--seed");
    } else if (a == "--retries") {
      retries = parse_int(next("--retries"), "--retries", 0, 64);
    } else if (a == "--threads") {
      threads = parse_int(next("--threads"), "--threads", 0, 1024);
    } else if (a == "--json") {
      json = true;
    } else {
      throw Error("unknown faults option '" + a + "'");
    }
  }
  std::vector<double> rates;
  {
    std::stringstream ss(rates_list);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      rates.push_back(parse_double(tok.c_str(), "--rates entry", 0.0, 1.0));
    }
  }
  if (rates.empty()) throw Error("--rates needs at least one entry");

  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);
  const PuConfig pu;  // defaults: bfp8, 32-bit PSU, RNE quantization
  const BfpFormat fmt = bfp8_format();
  Rng rng(seed);
  const auto a = rng.normal_vec(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 0.0F, 1.0F);
  const auto b = rng.normal_vec(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 0.0F, 1.0F);

  // Fault-free bits: the ground truth every injected run is diffed against.
  const AbftGemmResult clean =
      abft_gemm(a, m, k, b, n, fmt, pu.quant_round, pu.psu_bits,
                AbftOptions{AbftMode::kUnprotected, nullptr, 0}, &pool);

  struct Row {
    double rate = 0.0;
    AbftMode mode = AbftMode::kUnprotected;
    std::uint64_t injected = 0;
    std::uint64_t faulty = 0;
    std::uint64_t detected = 0;
    std::uint64_t patched = 0;
    std::uint64_t recomputed = 0;
    std::uint64_t sdc_words = 0;
    double overhead = 0.0;
  };
  std::vector<Row> rows;
  for (const double rate : rates) {
    FaultRates fr;
    fr.psu_word = rate;
    FaultPlan plan(seed, fr);
    for (const AbftMode mode :
         {AbftMode::kUnprotected, AbftMode::kDetect, AbftMode::kCorrect}) {
      const AbftGemmResult res =
          abft_gemm(a, m, k, b, n, fmt, pu.quant_round, pu.psu_bits,
                    AbftOptions{mode, &plan, retries}, &pool);
      Row row;
      row.rate = rate;
      row.mode = mode;
      const auto snap = res.counters.snapshot();
      auto get = [&](const char* key) -> std::uint64_t {
        const auto it = snap.find(key);
        return it == snap.end() ? 0 : it->second;
      };
      row.injected = get("reliability.injected");
      row.faulty = get("reliability.faulty_products");
      row.detected = get("reliability.detected_products");
      row.patched = get("reliability.patched");
      row.recomputed = get("reliability.recomputed");
      row.overhead = res.work.overhead_fraction();
      for (std::size_t i = 0; i < clean.c.size(); ++i) {
        if (float_to_bits(res.c[i]) != float_to_bits(clean.c[i])) {
          ++row.sdc_words;
        }
      }
      rows.push_back(row);
    }
  }

  if (json) {
    std::ostringstream os;
    os << "{\"m\":" << m << ",\"k\":" << k << ",\"n\":" << n
       << ",\"seed\":" << seed << ",\"cells\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i != 0) os << ",";
      os << "{\"rate\":" << r.rate << ",\"mode\":\"" << to_string(r.mode)
         << "\",\"injected\":" << r.injected << ",\"faulty\":" << r.faulty
         << ",\"detected\":" << r.detected << ",\"patched\":" << r.patched
         << ",\"recomputed\":" << r.recomputed
         << ",\"sdc_words\":" << r.sdc_words
         << ",\"overhead\":" << r.overhead << "}";
    }
    os << "]}";
    std::printf("%s\n", os.str().c_str());
  } else {
    std::printf(
        "fault injection sweep: %dx%dx%d GEMM, PSU accumulator SEUs\n\n", m,
        k, n);
    TextTable t({"rate/word", "mode", "injected", "faulty", "detected",
                 "patched", "recomputed", "SDC words", "overhead"});
    for (const Row& r : rows) {
      t.add_row({fmt_double(r.rate, 6), to_string(r.mode),
                 std::to_string(r.injected), std::to_string(r.faulty),
                 std::to_string(r.detected), std::to_string(r.patched),
                 std::to_string(r.recomputed), std::to_string(r.sdc_words),
                 fmt_percent(100.0 * r.overhead, 1)});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf(
        "SDC = output words whose bits differ from the fault-free run.\n");
  }
  return 0;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

bool known_command(const std::string& cmd) {
  for (const char* k : {"info", "gemm", "softmax", "deit", "throughput",
                        "batch", "compile", "verify", "serve", "cluster",
                        "fleet", "faults", "resources"}) {
    if (cmd == k) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (!known_command(cmd)) return usage();
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "gemm") {
      if (argc < 5) return bad_args("gemm needs <M> <K> <N>");
      int m = 0;
      int k = 0;
      int n = 0;
      try {
        m = parse_int(argv[2], "gemm <M>", 1, 4096);
        k = parse_int(argv[3], "gemm <K>", 1, 4096);
        n = parse_int(argv[4], "gemm <N>", 1, 4096);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
      return cmd_gemm(m, k, n);
    }
    if (cmd == "softmax") {
      if (argc < 4) return bad_args("softmax needs <ROWS> <COLS>");
      int rows = 0;
      int cols = 0;
      try {
        rows = parse_int(argv[2], "softmax <ROWS>", 1, 4096);
        cols = parse_int(argv[3], "softmax <COLS>", 1, 4096);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
      return cmd_softmax(rows, cols, has_flag(argc, argv, "--softermax"));
    }
    if (cmd == "deit") {
      if (argc < 3) return bad_args("deit needs <tiny|small|base>");
      VitConfig cfg;
      try {
        cfg = pick_config(argv[2]);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
      return cmd_deit(cfg, has_flag(argc, argv, "--softermax"));
    }
    if (cmd == "throughput") return cmd_throughput();
    if (cmd == "batch") {
      if (argc < 4) return bad_args("batch needs <tiny|small|base> <BATCH>");
      VitConfig cfg;
      int batch = 0;
      try {
        cfg = pick_config(argv[2]);
        batch = parse_int(argv[3], "batch <BATCH>", 1, 1 << 20);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
      return cmd_batch(argv[2], cfg, batch);
    }
    if (cmd == "compile") {
      if (argc < 3) return bad_args("compile needs <spec|spec.json>");
      try {
        return cmd_compile(argc - 2, argv + 2);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
    }
    if (cmd == "verify") {
      if (argc < 3) return bad_args("verify needs <spec|spec.json>");
      try {
        return cmd_verify(argc - 2, argv + 2);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
    }
    if (cmd == "serve") {
      if (argc < 3) {
        return bad_args("serve needs <tiny|small|base|test> or --model");
      }
      try {
        if (std::string(argv[2]) == "--model") {
          return cmd_serve_model(argc - 2, argv + 2);
        }
        return cmd_serve(argc - 2, argv + 2);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
    }
    if (cmd == "cluster") {
      if (argc < 3) return bad_args("cluster needs <tiny|small|base|test>");
      try {
        return cmd_cluster(argc - 2, argv + 2);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
    }
    if (cmd == "fleet") {
      if (argc < 3) return bad_args("fleet needs <tiny|small|base|test>");
      try {
        return cmd_fleet(argc - 2, argv + 2);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
    }
    if (cmd == "faults") {
      try {
        return cmd_faults(argc - 2, argv + 2);
      } catch (const Error& e) {
        return bad_args(e.what());
      }
    }
    if (cmd == "resources") {
      return cmd_resources(argc >= 3 ? argv[2] : "unit");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
