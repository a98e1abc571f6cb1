// Energy bench — the evaluation axis the paper names but does not
// tabulate. Activity-based estimates (see resource/energy.hpp for the
// coefficient provenance) for:
//   * bfp8 GEMM energy/op across sizes,
//   * fp32 vector mode energy/FLOP (the 8x DSP-op blow-up of slicing),
//   * the saving from clock-gating the idle PE columns in fp32 mode
//     (Section II-C: "keeping the remaining PEs idle to save power"),
//   * the DeiT-Small end-to-end energy split.
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "compiler/partition.hpp"
#include "resource/energy.hpp"

int main() {
  using namespace bfpsim;
  const SystemConfig sys;
  const EnergyModel em(sys);
  const AcceleratorSystem accel(sys);

  std::cout << "ENERGY MODEL (activity-based; not calibrated to the paper "
               "— it publishes no\nenergy table)\n\n";

  std::cout << "A) bfp8 GEMM energy\n\n";
  TextTable t({"GEMM", "total uJ", "pJ/op", "avg power (W)"});
  for (int dim : {256, 512, 1024}) {
    const EnergyEstimate e = em.gemm_energy(dim, dim, dim);
    const auto ops = 2ull * static_cast<std::uint64_t>(dim) * dim * dim;
    const auto cycles = accel.gemm_latency(dim, dim, dim).cycles;
    t.add_row({std::to_string(dim) + "^3", fmt_double(e.total_uj(), 1),
               fmt_double(EnergyModel::pj_per_op(e, ops), 2),
               fmt_double(em.average_power_mw(e, cycles) / 1000.0, 2)});
  }
  std::cout << t << "\n";

  std::cout << "B) fp32 vector mode energy and the idle-column gating "
               "saving\n\n";
  {
    const std::uint64_t mul_ops = 10'000'000;
    const EnergyEstimate gated = em.vector_energy(mul_ops, 0, true);
    const EnergyEstimate ungated = em.vector_energy(mul_ops, 0, false);
    TextTable t2({"config", "total uJ", "pJ/FLOP"});
    t2.add_row({"idle columns clock-gated", fmt_double(gated.total_uj(), 1),
                fmt_double(EnergyModel::pj_per_op(gated, 2 * mul_ops), 2)});
    t2.add_row({"idle columns free-running",
                fmt_double(ungated.total_uj(), 1),
                fmt_double(EnergyModel::pj_per_op(ungated, 2 * mul_ops), 2)});
    std::cout << t2;
    std::cout << "  gating saves "
              << fmt_percent(100.0 * (1.0 - gated.total_uj() /
                                                ungated.total_uj()),
                             1)
              << " of fp32-mode energy (Section II-C's design choice)\n\n";
  }

  std::cout << "C) energy per effective operation, by mode\n\n";
  {
    const EnergyEstimate bfp = em.gemm_energy(1024, 1024, 1024);
    const std::uint64_t bfp_ops = 2ull * 1024 * 1024 * 1024;
    const std::uint64_t vec_ops = 10'000'000;
    const EnergyEstimate fp32 = em.vector_energy(vec_ops, 0, true);
    TextTable t3({"mode", "pJ/op"});
    t3.add_row({"bfp8 MatMul",
                fmt_double(EnergyModel::pj_per_op(bfp, bfp_ops), 2)});
    t3.add_row({"fp32 vector (sliced)",
                fmt_double(EnergyModel::pj_per_op(fp32, 2 * vec_ops), 2)});
    std::cout << t3;
    std::cout << "  (the fp32 op costs ~an order of magnitude more: 8 DSP "
                 "ops + scattered HBM\n   traffic per element — the energy "
                 "face of the Table IV latency story)\n\n";
  }

  std::cout << "D) DeiT-Small end-to-end energy split\n\n";
  {
    const VitConfig cfg = deit_small();
    // The compiled DeiT-Small program's Table IV rows: MatMul ops are
    // 2 x MACs, the four fp32 rows' ops are vector-pass device flops.
    const WorkloadBreakdown b =
        workload_breakdown(compile_vit(cfg, accel), sys.pu.freq_hz);
    auto ops_of = [&](Partition p) { return b.row(p).mega_ops * 1e6; };
    // One representative GEMM shape re-scaled to the total MACs.
    const EnergyEstimate per_block =
        em.gemm_energy(cfg.tokens(), cfg.embed_dim, 3 * cfg.embed_dim);
    const double block_macs = static_cast<double>(cfg.tokens()) *
                              cfg.embed_dim * 3 * cfg.embed_dim;
    const double lin_uj =
        per_block.total_uj() * ops_of(Partition::kMatMul) / 2.0 / block_macs;
    const auto fp32_ops = static_cast<std::uint64_t>(std::llround(
        ops_of(Partition::kLayerNorm) + ops_of(Partition::kSoftmax) +
        ops_of(Partition::kGelu) + ops_of(Partition::kResidualBias)));
    const double fp32_uj = em.vector_energy(fp32_ops, 0, true).total_uj();
    TextTable t4({"partition", "energy (uJ)", "share"});
    t4.add_row({"bfp8 MatMul", fmt_double(lin_uj, 1),
                fmt_percent(100.0 * lin_uj / (lin_uj + fp32_uj), 1)});
    t4.add_row({"fp32 non-linear", fmt_double(fp32_uj, 1),
                fmt_percent(100.0 * fp32_uj / (lin_uj + fp32_uj), 1)});
    std::cout << t4;
    std::cout << "  The latency story becomes an energy story: while the "
                 "fp32 partition's\n  *dynamic* energy is small (few ops), "
                 "its long runtime accrues most of the\n  static/leakage "
                 "energy — optimizing the non-linear path (Section III-D's "
                 "plan)\n  pays twice.\n";
  }
  return 0;
}
