// Table IV — estimated proportion of linear and non-linear operations of a
// DeiT-Small model, with end-to-end latency per partition: the compiled
// DeiT-Small program's priced cycles, rolled up by graph-op family.
//
// Note on absolute op counts: the paper reports 2465M "OPs" for the bfp8
// MatMul partition of DeiT-Small; counting every MAC of the published
// DeiT-Small architecture (12 blocks, d=384, 197 tokens) gives ~4.54G MACs
// (~9.1G ops), so the paper evidently uses a different counting convention.
// The *proportions* — fp32 being ~1% of operations yet dominating latency,
// with SoftMax the largest contributor — are the claims this bench checks.
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "compiler/partition.hpp"
#include "fabric/system.hpp"

int main() {
  using namespace bfpsim;
  const AcceleratorSystem sys;
  const VitConfig cfg = deit_small();

  std::cout << "TABLE IV: Estimated proportion of linear and non-linear "
               "operations of a DeiT-Small model\n\n";

  const double freq = sys.config().pu.freq_hz;
  const WorkloadBreakdown b =
      workload_breakdown(compile_vit(cfg, sys), freq);

  struct PaperRow {
    const char* name;
    double mops, ops_pct, lat_ms, lat_pct;
  };
  const PaperRow paper[] = {
      {"bfp8 MatMul", 2465.0, 98.649, 1.201, 8.170},
      {"fp32 LayerNorm", 6.383, 0.043, 0.425, 2.891},
      {"fp32 SoftMax", 145.3, 0.969, 9.686, 65.887},
      {"fp32 GELU", 50.84, 0.339, 3.389, 23.053},
  };

  // The paper folds the residual/bias adds and the data movement away;
  // the priced program charges them, so they get rows of their own.
  TextTable t({"Workload Partition", "MOPs", "Ops %", "Latency(ms)",
               "Latency %", "MOPs(paper)", "Ops %(paper)",
               "Lat(ms, paper)", "Lat %(paper)"});
  for (std::size_t i = 0; i < b.rows.size(); ++i) {
    const auto& r = b.rows[i];
    std::vector<std::string> row = {
        r.partition, fmt_double(r.mega_ops, 1),
        fmt_percent(100.0 * r.ops_proportion, 3), fmt_double(r.latency_ms, 3),
        fmt_percent(100.0 * r.latency_proportion, 3)};
    if (i < std::size(paper)) {
      const auto& p = paper[i];
      row.insert(row.end(),
                 {fmt_double(p.mops, 1), fmt_percent(p.ops_pct, 3),
                  fmt_double(p.lat_ms, 3), fmt_percent(p.lat_pct, 3)});
    } else {
      row.insert(row.end(), {"-", "-", "-", "-"});
    }
    t.add_row(row);
  }
  std::cout << t << "\n";

  std::cout << "Headline claims:\n";
  std::cout << "  fp32 share of operations: "
            << fmt_percent(100.0 * b.fp32_ops_share, 2)
            << "  (paper: 1.35%)\n";
  std::cout << "  fp32 share of latency:    "
            << fmt_percent(100.0 * b.fp32_latency_share, 2)
            << "  (paper: 92.45%)\n";
  std::cout << "  Shape check: fp32 is a tiny fraction of work but "
            << (b.fp32_latency_share > 0.5 ? "DOMINATES" : "does NOT dominate")
            << " latency; SoftMax is the largest fp32 contributor.\n\n";

  std::cout << "Other DeiT variants (same analysis):\n";
  TextTable t3({"Model", "bfp8 GOPs", "fp32 MOPs", "total latency (ms)",
                "fp32 latency share"});
  for (const VitConfig& c : {deit_tiny(), deit_small(), deit_base()}) {
    const WorkloadBreakdown wb = workload_breakdown(compile_vit(c, sys), freq);
    const double bfp_gops = wb.row(Partition::kMatMul).mega_ops / 1000.0;
    const double fp32_mops = wb.fp32_ops_share * wb.total_mega_ops;
    t3.add_row({c.name, fmt_double(bfp_gops, 2), fmt_double(fp32_mops, 1),
                fmt_double(wb.total_latency_ms, 2),
                fmt_percent(100.0 * wb.fp32_latency_share, 1)});
  }
  std::cout << t3;
  return 0;
}
