#include "fabric/system.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "numerics/format/registry.hpp"

namespace bfpsim {

void SystemConfig::validate() const {
  pu.validate();
  hbm.validate();
  BFP_REQUIRE(num_units >= 1 && num_units <= 64,
              "SystemConfig: num_units must be in [1,64]");
  BFP_REQUIRE(arrays_per_unit >= 1 && arrays_per_unit <= 8,
              "SystemConfig: arrays_per_unit must be in [1,8]");
}

namespace {
std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}
}  // namespace

AcceleratorSystem::AcceleratorSystem(const SystemConfig& cfg)
    : cfg_(cfg), mem_(cfg.hbm, cfg.arrays_per_unit), pu_(cfg.pu) {
  cfg_.validate();
}

WorkloadResult AcceleratorSystem::measure_bfp_unit(int n_x,
                                                   int n_passes) const {
  BFP_REQUIRE(n_x >= 1 && n_x <= kMaxXBlocks,
              "measure_bfp_unit: n_x must be in [1,64]");
  BFP_REQUIRE(n_passes >= 1, "measure_bfp_unit: n_passes must be positive");
  const auto& a = cfg_.pu.array;
  const std::uint64_t compute = ProcessingUnit::bfp_run_cycles(a, n_x);
  const PassIo io = mem_.bfp_pass(n_x, compute, /*write_back=*/true);
  const int lanes = a.combined_mac ? 2 : 1;
  const std::uint64_t macs_per_pass =
      static_cast<std::uint64_t>(n_x) * a.rows * a.rows * a.cols *
      static_cast<std::uint64_t>(lanes) *
      static_cast<std::uint64_t>(cfg_.arrays_per_unit);
  WorkloadResult r;
  r.freq_hz = cfg_.pu.freq_hz;
  r.cycles = io.exposed_cycles * static_cast<std::uint64_t>(n_passes);
  r.ops = 2 * macs_per_pass * static_cast<std::uint64_t>(n_passes);
  return r;
}

double AcceleratorSystem::theoretical_bfp_unit(int n_x) const {
  const auto& a = cfg_.pu.array;
  const double stream = static_cast<double>(a.rows) * n_x;
  return peak_bfp_unit() * stream /
         (stream + static_cast<double>(a.bfp_overhead_cycles()));  // Eqn 9
}

double AcceleratorSystem::peak_bfp_unit() const {
  return ProcessingUnit::bfp_peak_ops(cfg_.pu) * cfg_.arrays_per_unit;
}

WorkloadResult AcceleratorSystem::measure_fp32_unit(int l,
                                                    int n_runs) const {
  BFP_REQUIRE(l >= 1 && l <= kMaxFpStream,
              "measure_fp32_unit: l must be in [1,128]");
  BFP_REQUIRE(n_runs >= 1, "measure_fp32_unit: n_runs must be positive");
  const std::uint64_t compute =
      ProcessingUnit::fp32_run_cycles(cfg_.pu.array, l);
  const PassIo io = mem_.fp32_run(l, kFp32Lanes, compute);
  WorkloadResult r;
  r.freq_hz = cfg_.pu.freq_hz;
  r.cycles = io.exposed_cycles * static_cast<std::uint64_t>(n_runs);
  r.ops = static_cast<std::uint64_t>(n_runs) * kFp32Lanes *
          static_cast<std::uint64_t>(l) * 2;  // mul + cascade add
  return r;
}

double AcceleratorSystem::theoretical_fp32_unit(int l) const {
  const double eff =
      static_cast<double>(l) /
      (static_cast<double>(l) +
       static_cast<double>(cfg_.pu.array.fp32_pipeline_cycles()));  // Eqn 10
  return peak_fp32_unit() * eff;
}

double AcceleratorSystem::peak_fp32_unit() const {
  return ProcessingUnit::fp32_peak_flops(cfg_.pu);
}

WorkloadResult AcceleratorSystem::measure_bf16_unit(int l,
                                                    int n_runs) const {
  BFP_REQUIRE(l >= 1 && l <= kMaxFpStream,
              "measure_bf16_unit: l must be in [1,128]");
  BFP_REQUIRE(n_runs >= 1, "measure_bf16_unit: n_runs must be positive");
  const std::uint64_t compute = ProcessingUnit::bf16_run_cycles(l);
  const PassIo io =
      mem_.bf16_run(l, ProcessingUnit::kBf16Lanes, compute);
  WorkloadResult r;
  r.freq_hz = cfg_.pu.freq_hz;
  r.cycles = io.exposed_cycles * static_cast<std::uint64_t>(n_runs);
  r.ops = static_cast<std::uint64_t>(n_runs) * ProcessingUnit::kBf16Lanes *
          static_cast<std::uint64_t>(l) * 2;
  return r;
}

double AcceleratorSystem::theoretical_bf16_unit(int l) const {
  const double eff =
      static_cast<double>(l) /
      static_cast<double>(ProcessingUnit::bf16_run_cycles(l));
  return peak_bf16_unit() * eff;
}

double AcceleratorSystem::peak_bf16_unit() const {
  return ProcessingUnit::bf16_peak_flops(cfg_.pu);
}

double AcceleratorSystem::peak_bfp_system() const {
  return peak_bfp_unit() * cfg_.num_units;
}

double AcceleratorSystem::theoretical_fp32_system(int l) const {
  return theoretical_fp32_unit(l) * cfg_.num_units;
}

double AcceleratorSystem::sustained_bfp_system(int n_x) const {
  return measure_bfp_unit(n_x).ops_per_sec() * cfg_.num_units;
}

double AcceleratorSystem::sustained_fp32_system(int l) const {
  return measure_fp32_unit(l).ops_per_sec() * cfg_.num_units;
}

WorkloadResult AcceleratorSystem::gemm_latency(std::int64_t m, std::int64_t k,
                                               std::int64_t n) const {
  BFP_REQUIRE(m > 0 && k > 0 && n > 0, "gemm_latency: dims must be positive");
  const auto& a = cfg_.pu.array;
  const int lanes = a.combined_mac ? 2 : 1;
  const auto mb = static_cast<std::uint64_t>(ceil_div(
      static_cast<std::uint64_t>(m), static_cast<std::uint64_t>(a.rows)));
  const auto kt = static_cast<std::uint64_t>(ceil_div(
      static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(a.rows)));
  const auto nb = static_cast<std::uint64_t>(ceil_div(
      static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(a.cols)));

  // Output column tiles pair up per array (combined MAC); pair-groups of
  // `arrays_per_unit` run concurrently inside a unit; groups distribute
  // across units.
  const std::uint64_t pairs = ceil_div(nb, static_cast<std::uint64_t>(lanes));
  const std::uint64_t groups =
      ceil_div(pairs, static_cast<std::uint64_t>(cfg_.arrays_per_unit));
  const std::uint64_t groups_per_unit =
      ceil_div(groups, static_cast<std::uint64_t>(cfg_.num_units));

  // Cycles of one group: sweep all m-chunks and k-tiles.
  std::uint64_t group_cycles = 0;
  for (std::uint64_t ms = 0; ms < mb; ms += kPsuSlots) {
    const int chunk = static_cast<int>(
        std::min<std::uint64_t>(kPsuSlots, mb - ms));
    const std::uint64_t compute = ProcessingUnit::bfp_run_cycles(a, chunk);
    const PassIo io = mem_.bfp_pass(chunk, compute, /*write_back=*/true);
    group_cycles += kt * io.exposed_cycles;
  }

  WorkloadResult r;
  r.freq_hz = cfg_.pu.freq_hz;
  r.cycles = groups_per_unit * group_cycles;
  r.ops = 2ull * static_cast<std::uint64_t>(m) *
          static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(n);
  return r;
}

std::uint64_t AcceleratorSystem::gemm_cycles(const NumericMode& mode,
                                             std::int64_t m, std::int64_t k,
                                             std::int64_t n) const {
  const std::uint64_t base = gemm_latency(m, k, n).cycles;
  if (mode.name == "bfp8") return base;
  return static_cast<std::uint64_t>(static_cast<double>(base) *
                                    mode.cycle_scale);
}

WorkloadResult AcceleratorSystem::vector_latency(std::uint64_t mul_ops,
                                                 std::uint64_t add_ops) const {
  WorkloadResult r;
  r.freq_hz = cfg_.pu.freq_hz;
  r.ops = mul_ops + add_ops;
  const std::uint64_t elems_per_run =
      static_cast<std::uint64_t>(kFp32Lanes) * kMaxFpStream;
  const std::uint64_t compute =
      ProcessingUnit::fp32_run_cycles(cfg_.pu.array, kMaxFpStream);
  const std::uint64_t exposed =
      mem_.fp32_run(kMaxFpStream, kFp32Lanes, compute).exposed_cycles;
  for (std::uint64_t elems : {mul_ops, add_ops}) {
    if (elems == 0) continue;
    const std::uint64_t runs = ceil_div(elems, elems_per_run);
    const std::uint64_t runs_per_unit =
        ceil_div(runs, static_cast<std::uint64_t>(cfg_.num_units));
    r.cycles += runs_per_unit * exposed;
  }
  return r;
}

GemmRun AcceleratorSystem::gemm(std::span<const float> a, int m, int k,
                                std::span<const float> b, int n) const {
  if (cfg_.pu.mode != "bfp8") {
    return gemm(numeric_mode(cfg_.pu.mode), a, m, k, b, n);
  }
  GemmRun run = pu_.gemm_bfp8_fast(a, m, k, b, n, pool_);
  // Replace the single-PU compute-cycle count with the distributed system
  // latency including memory I/O.
  run.compute_cycles = gemm_latency(m, k, n).cycles;
  return run;
}

GemmRun AcceleratorSystem::gemm(std::span<const float> a, int m, int k,
                                const BfpMatrix& b, int n) const {
  BFP_REQUIRE(cfg_.pu.mode == "bfp8",
              "AcceleratorSystem::gemm: a pre-quantized B needs a bfp8 system");
  GemmRun run = pu_.gemm_bfp8_fast(a, m, k, b, n, pool_);
  run.compute_cycles = gemm_latency(m, k, n).cycles;
  return run;
}

GemmRun AcceleratorSystem::gemm(const NumericMode& mode,
                                std::span<const float> a, int m, int k,
                                std::span<const float> b, int n) const {
  if (mode.name == "bfp8") {
    GemmRun run = pu_.gemm_bfp8_fast(a, m, k, b, n, pool_);
    run.compute_cycles = gemm_latency(m, k, n).cycles;
    return run;
  }
  // Non-bfp8 numeric modes run the registry's independent scalar golden
  // for that mode.
  GemmRun run;
  run.c = mode_gemm_reference(mode, a, m, k, b, n, cfg_.pu.psu_bits, pool_);
  run.macs = static_cast<std::uint64_t>(m) *
             static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(n);
  run.compute_cycles = gemm_cycles(mode, m, k, n);
  return run;
}

}  // namespace bfpsim
