// Extension bench — the Softermax-style fast exp (Stevens et al. [8], the
// direction the paper's Sections III-B/III-D point at for the fp32
// bottleneck): add a small float-to-int / exponent-injection unit beside
// the EU so exp(x) splits into 2^k * poly(frac) — 16 device ops per
// element instead of the plain mul/add unit's 54 — and re-price the
// compiled DeiT-Small program (Table IV) with every softmax lowered to it.
#include <cmath>
#include <iostream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compiler/partition.hpp"
#include "numerics/nonlinear.hpp"
#include "resource/components.hpp"
#include "resource/designs.hpp"

int main() {
  using namespace bfpsim;
  const AcceleratorSystem sys;

  std::cout << "EXTENSION: Softermax-style fast exp (exp2 unit beside the "
               "EU)\n\n";

  // ---- per-element cost & accuracy ----
  {
    Rng rng(66);
    OpCounter plain_ops;
    OpCounter fast_ops;
    double plain_err = 0.0;
    double fast_err = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const float x = rng.uniform(-20.0F, 0.0F);
      const double ref = std::exp(static_cast<double>(x));
      plain_err = std::max(
          plain_err, std::fabs(approx_exp(x, &plain_ops) - ref));
      fast_err = std::max(
          fast_err, std::fabs(approx_exp_split(x, &fast_ops) - ref));
    }
    TextTable t({"exp implementation", "device ops/elem", "max abs err"});
    t.add_row({"degree-16 Chebyshev (plain unit)",
               fmt_double(static_cast<double>(plain_ops.device_flops()) / n,
                          1),
               fmt_double(plain_err, 9)});
    t.add_row({"split 2^k * poly(frac) (exp2 unit)",
               fmt_double(static_cast<double>(fast_ops.device_flops()) / n,
                          1),
               fmt_double(fast_err, 9)});
    std::cout << t << "\n";
  }

  // ---- softmax accuracy stays put ----
  {
    Rng rng(67);
    const int rows = 32;
    const int cols = 197;
    const auto x = rng.normal_vec(
        static_cast<std::size_t>(rows) * cols, 0.0F, 2.0F);
    const auto ref = softmax_reference(x, rows, cols);
    const auto plain = approx_softmax(x, rows, cols, nullptr, false);
    const auto fast = approx_softmax(x, rows, cols, nullptr, true);
    TextTable t({"softmax", "max abs err vs fp64"});
    t.add_row({"plain", fmt_double(compute_error_stats(plain, ref).max_abs,
                                   9)});
    t.add_row({"softermax", fmt_double(
                                compute_error_stats(fast, ref).max_abs, 9)});
    std::cout << t << "\n";
  }

  // ---- hardware cost of the option ----
  {
    const Resources unit = exp2_unit();
    const Resources pu = multimode_pu_breakdown().total();
    std::cout << "exp2-unit hardware cost: " << fmt_double(unit.lut, 0)
              << " LUT / " << fmt_double(unit.ff, 0) << " FF per unit ("
              << fmt_percent(100.0 * unit.lut / pu.lut, 2) << " of the PU's "
              << "LUTs; no BRAM/DSP)\n\n";
  }

  // ---- Table IV, before and after ----
  const VitConfig cfg = deit_small();
  const double freq = sys.config().pu.freq_hz;
  const WorkloadBreakdown base =
      workload_breakdown(compile_vit(cfg, sys), freq);
  const WorkloadBreakdown opt =
      workload_breakdown(compile_vit(cfg, sys, /*softermax=*/true), freq);
  std::cout << "DeiT-Small end-to-end impact:\n\n";
  TextTable t({"metric", "plain unit", "with exp2 unit", "change"});
  auto row = [&](const char* name, double a, double b, int prec,
                 const char* unit) {
    t.add_row({name, fmt_double(a, prec) + unit, fmt_double(b, prec) + unit,
               fmt_ratio(a / b)});
  };
  const double base_sm = base.row(Partition::kSoftmax).latency_ms;
  const double opt_sm = opt.row(Partition::kSoftmax).latency_ms;
  row("SoftMax latency", base_sm, opt_sm, 2, " ms");
  row("total latency", base.total_latency_ms, opt.total_latency_ms, 2,
      " ms");
  t.add_row({"fp32 latency share",
             fmt_percent(100.0 * base.fp32_latency_share, 1),
             fmt_percent(100.0 * opt.fp32_latency_share, 1), "-"});
  std::cout << t;
  std::cout << "\nA ~140-LUT hardware option recovers a "
            << fmt_ratio(base_sm / opt_sm)
            << " SoftMax speedup — quantifying the paper's own 'optimize "
               "the vector\nprocessing unit' roadmap (Section V).\n";
  return 0;
}
