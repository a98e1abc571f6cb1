// Tests for the HBM/AXI memory model and the multi-unit system: the
// measured-vs-theoretical throughput relationships behind Fig. 7 and the
// headline numbers of Table III.
#include "fabric/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace bfpsim {
namespace {

TEST(Hbm, TransferCyclesScaleWithBytesAndBursts) {
  HbmConfig cfg;
  EXPECT_EQ(transfer_cycles(cfg, 0, 4096), 0u);
  // 64 bytes at 64 B/cycle = 1 data cycle + 1 burst overhead.
  EXPECT_EQ(transfer_cycles(cfg, 64, 4096),
            1u + static_cast<std::uint64_t>(cfg.burst_overhead_cycles));
  // Two bursts when exceeding the burst size.
  EXPECT_EQ(transfer_cycles(cfg, 4097, 4096),
            65u + 2u * static_cast<std::uint64_t>(cfg.burst_overhead_cycles));
}

TEST(Hbm, CombineOverlapBounds) {
  // Fully hidden I/O adds nothing while it fits under compute.
  EXPECT_EQ(combine_overlap(100, 50, 1.0), 100u);
  // No overlap: serial.
  EXPECT_EQ(combine_overlap(100, 50, 0.0), 150u);
  // Partial.
  EXPECT_EQ(combine_overlap(100, 50, 0.5), 125u);
  // Hidden part can never exceed compute.
  EXPECT_EQ(combine_overlap(10, 1000, 1.0), 1000u);
}

TEST(Hbm, ConfigValidation) {
  HbmConfig bad;
  bad.bfp_overlap = 1.5;
  EXPECT_THROW(bad.validate(), Error);

  HbmConfig zero_channels;
  zero_channels.axi_channels_per_unit = 0;
  EXPECT_THROW(zero_channels.validate(), Error);

  HbmConfig zero_burst;
  zero_burst.bfp_burst_bytes = 0;
  EXPECT_THROW(zero_burst.validate(), Error);

  HbmConfig negative_overlap;
  negative_overlap.fp32_overlap = -0.1;
  EXPECT_THROW(negative_overlap.validate(), Error);

  EXPECT_NO_THROW(HbmConfig{}.validate());
}

TEST(System, PeakNumbersMatchPaper) {
  AcceleratorSystem sys;
  // Per-unit peak: 2 arrays x 76.8 GOPS = 153.6 GOPS.
  EXPECT_DOUBLE_EQ(sys.peak_bfp_unit(), 153.6e9);
  // System peak: 15 x 153.6 = 2304 GOPS.
  EXPECT_DOUBLE_EQ(sys.peak_bfp_system(), 2304.0e9);
  // fp32 peak: 15 units x 2.4 GFLOPS (Eqn 8) = 36 GFLOPS.
  EXPECT_DOUBLE_EQ(sys.peak_fp32_unit() * sys.config().num_units, 36.0e9);
  // Theoretical fp32 system at L=128: 36 GFLOPS * 128/136 = 33.88 GFLOPS.
  EXPECT_NEAR(sys.theoretical_fp32_system(128) / 1e9, 33.88, 0.01);
}

TEST(System, MeasuredBfpThroughputNearPaperValue) {
  AcceleratorSystem sys;
  // Paper: 2052.06 GOPS measured on the full system at long streams.
  const double gops = sys.sustained_bfp_system(64) / 1e9;
  EXPECT_GT(gops, 1950.0);
  EXPECT_LT(gops, 2150.0);
  // And it must stay below the Eqn 9 theoretical value.
  EXPECT_LT(sys.measure_bfp_unit(64).ops_per_sec(),
            sys.theoretical_bfp_unit(64));
}

TEST(System, MeasuredFp32ThroughputFarFromTheoretical) {
  AcceleratorSystem sys;
  // Paper Section III-B/III-D: measured fp32 lands around 15 GFLOPS,
  // far below the 33.88 theoretical.
  const double gf = sys.sustained_fp32_system(128) / 1e9;
  EXPECT_GT(gf, 12.0);
  EXPECT_LT(gf, 18.0);
  EXPECT_LT(gf, 0.55 * sys.theoretical_fp32_system(128) / 1e9);
}

TEST(System, ThroughputIncreasesWithStreamLength) {
  AcceleratorSystem sys;
  double prev = 0.0;
  for (int n_x : {8, 16, 32, 64}) {
    const double t = sys.measure_bfp_unit(n_x).ops_per_sec();
    EXPECT_GT(t, prev) << "n_x=" << n_x;
    EXPECT_LT(t, sys.theoretical_bfp_unit(n_x));
    prev = t;
  }
  prev = 0.0;
  for (int l : {16, 32, 64, 128}) {
    const double t = sys.measure_fp32_unit(l).ops_per_sec();
    EXPECT_GT(t, prev) << "l=" << l;
    EXPECT_LT(t, sys.theoretical_fp32_unit(l));
    prev = t;
  }
}

TEST(System, GemmLatencyScalesWithWork) {
  AcceleratorSystem sys;
  const auto small = sys.gemm_latency(197, 384, 384);
  const auto big = sys.gemm_latency(197, 384, 1536);
  EXPECT_GT(big.cycles, small.cycles);
  EXPECT_EQ(big.ops, 4 * small.ops);
}

TEST(System, GemmLatencyUsesAllUnits) {
  SystemConfig one;
  one.num_units = 1;
  const AcceleratorSystem sys1(one);
  const AcceleratorSystem sys15;
  // A wide GEMM parallelizes across units almost linearly.
  const auto l1 = sys1.gemm_latency(512, 512, 2048);
  const auto l15 = sys15.gemm_latency(512, 512, 2048);
  EXPECT_LT(l15.cycles * 10, l1.cycles);
}

TEST(System, VectorLatencySplitsModes) {
  AcceleratorSystem sys;
  const auto mul_only = sys.vector_latency(1 << 20, 0);
  const auto add_only = sys.vector_latency(0, 1 << 20);
  const auto both = sys.vector_latency(1 << 20, 1 << 20);
  EXPECT_EQ(both.cycles, mul_only.cycles + add_only.cycles);
  EXPECT_EQ(sys.vector_latency(0, 0).cycles, 0u);
}

TEST(System, FunctionalGemmMatchesPu) {
  Rng rng(71);
  AcceleratorSystem sys;
  ProcessingUnit pu;
  const int m = 24;
  const int k = 32;
  const int n = 40;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  const GemmRun sys_run = sys.gemm(a, m, k, b, n);
  const GemmRun pu_run = pu.gemm_bfp8_fast(a, m, k, b, n);
  ASSERT_EQ(sys_run.c.size(), pu_run.c.size());
  for (std::size_t i = 0; i < sys_run.c.size(); ++i) {
    EXPECT_EQ(sys_run.c[i], pu_run.c[i]);
  }
  // System latency includes I/O: more cycles per unit of work than the
  // bare compute model when work is small, but distributed across units.
  EXPECT_GT(sys_run.compute_cycles, 0u);
}

TEST(System, GemmAccuracyAndMacs) {
  Rng rng(91);
  const AcceleratorSystem sys;
  const int m = 64;
  const int k = 96;
  const int n = 48;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  const GemmRun run = sys.gemm(a, m, k, b, n);
  ASSERT_EQ(run.c.size(), static_cast<std::size_t>(m) * n);
  EXPECT_GT(run.compute_cycles, 0u);
  EXPECT_EQ(run.macs, static_cast<std::uint64_t>(m) * k * n);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double accum = 0.0;
      for (int x = 0; x < k; ++x) {
        accum += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
                 b[static_cast<std::size_t>(x) * n + j];
      }
      ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(accum);
    }
  }
  EXPECT_GT(compute_error_stats(run.c, ref).snr_db, 25.0);
}

TEST(System, GemmWithThreadPoolIsBitIdentical) {
  Rng rng(103);
  const int m = 70;
  const int k = 48;
  const int n = 90;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);

  AcceleratorSystem serial;
  const GemmRun want = serial.gemm(a, m, k, b, n);

  ThreadPool pool(4);
  AcceleratorSystem parallel;
  parallel.set_thread_pool(&pool);
  EXPECT_EQ(parallel.thread_pool(), &pool);
  const GemmRun got = parallel.gemm(a, m, k, b, n);

  EXPECT_EQ(got.compute_cycles, want.compute_cycles);
  EXPECT_EQ(got.macs, want.macs);
  ASSERT_EQ(got.c.size(), want.c.size());
  for (std::size_t i = 0; i < got.c.size(); ++i) {
    ASSERT_EQ(got.c[i], want.c[i]) << "element " << i;
  }
}

TEST(System, ConfigValidation) {
  SystemConfig bad;
  bad.num_units = 0;
  EXPECT_THROW(AcceleratorSystem{bad}, Error);
  SystemConfig bad2;
  bad2.arrays_per_unit = 100;
  EXPECT_THROW(AcceleratorSystem{bad2}, Error);
}

}  // namespace
}  // namespace bfpsim
