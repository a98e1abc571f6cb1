// Absolute byte pins of the two functional forward entry points:
//   * VitModel::forward_mixed — output bytes plus every ForwardStats field,
//     for vit-tiny-test and deit-small on the default 15-unit system and on
//     a one-unit system, plus vit-tiny-test under an mlp-only policy;
//   * ClusterExecutor::forward — features plus every ClusterStats field,
//     tensor- and pipeline-sharded.
// The pins hold across refactors of the encoder walk: any change to an
// output bit, a cycle, a MAC or an op count shows up here as a digest or
// a stats-line mismatch.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "transformer/model.hpp"

namespace bfpsim {
namespace {

std::uint64_t fnv1a_floats(const std::vector<float>& v,
                           std::uint64_t h = 14695981039346656037ULL) {
  for (const float f : v) {
    unsigned char b[4];
    std::memcpy(b, &f, sizeof b);
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string join(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

std::string stats_line(const ForwardStats& s) {
  const OpCounter& o = s.nonlinear_ops;
  return "macs=" + std::to_string(s.bfp_macs) +
         " linear=" + std::to_string(s.linear_cycles) +
         " vector=" + std::to_string(s.vector_cycles) +
         " fp_mul=" + std::to_string(o.fp_mul) +
         " fp_add=" + std::to_string(o.fp_add) +
         " exp=" + std::to_string(o.exp_manip) +
         " div=" + std::to_string(o.host_div) +
         " other=" + std::to_string(o.host_other);
}

std::string stats_line(const ClusterStats& s) {
  return "cards=[" + join(s.card_compute_cycles) + "] sends=[" +
         join(s.stage_send_cycles) +
         "] compute=" + std::to_string(s.compute_cycles) +
         " collective=" + std::to_string(s.collective_cycles) +
         " bytes=" + std::to_string(s.collective_bytes) +
         " macs=" + std::to_string(s.bfp_macs);
}

SystemConfig units(int n) {
  SystemConfig cfg;
  cfg.num_units = n;
  return cfg;
}

void expect_forward_pin(const VitConfig& cfg, const SystemConfig& sys_cfg,
                        const PrecisionPolicy& policy, std::uint64_t digest,
                        const std::string& stats) {
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys(sys_cfg);
  ForwardStats fs;
  const std::vector<float> out =
      model.forward_mixed(random_embeddings(cfg, 7), sys, &fs, policy);
  EXPECT_EQ(fnv1a_floats(out), digest) << std::hex << fnv1a_floats(out);
  EXPECT_EQ(stats_line(fs), stats);
}

void expect_cluster_pin(const VitConfig& cfg, PartitionStrategy strategy,
                        int cards, std::uint64_t digest,
                        const std::string& stats) {
  const ClusterExecutor exec(random_weights(cfg, 42),
                             ClusterTopology::ring(cards), strategy);
  ClusterStats cs;
  const std::vector<float> out = exec.forward(random_embeddings(cfg, 7), &cs);
  EXPECT_EQ(fnv1a_floats(out), digest) << std::hex << fnv1a_floats(out);
  EXPECT_EQ(stats_line(cs), stats);
}

TEST(ForwardBytePins, VitTinyDefaultSystem) {
  expect_forward_pin(vit_test_tiny(), units(15), PrecisionPolicy::all_bfp8(),
                     0xc99bbd9456e9ada7ULL,
                     "macs=1745152 linear=6440 vector=23100 fp_mul=185504 "
                     "fp_add=179996 exp=0 div=136 other=12172");
}

TEST(ForwardBytePins, VitTinyOneUnit) {
  expect_forward_pin(vit_test_tiny(), units(1), PrecisionPolicy::all_bfp8(),
                     0xc99bbd9456e9ada7ULL,
                     "macs=1745152 linear=18952 vector=242220 fp_mul=185504 "
                     "fp_add=179996 exp=0 div=136 other=12172");
}

TEST(ForwardBytePins, VitTinyMlpOnlyPolicy) {
  PrecisionPolicy mlp_only = PrecisionPolicy::all_fp32();
  mlp_only.mlp = true;
  expect_forward_pin(vit_test_tiny(), units(15), mlp_only,
                     0x9b2b6159a6362c97ULL,
                     "macs=1114112 linear=3680 vector=23100 fp_mul=185504 "
                     "fp_add=179996 exp=0 div=136 other=12172");
}

TEST(ForwardBytePins, DeitSmallDefaultSystem) {
  expect_forward_pin(deit_small(), units(15), PrecisionPolicy::all_bfp8(),
                     0x7decd51748a40af0ULL,
                     "macs=4540695552 linear=2191968 vector=12371040 "
                     "fp_mul=125868816 fp_add=160586520 exp=0 div=18912 "
                     "other=12013848");
}

TEST(ForwardBytePins, DeitSmallOneUnit) {
  expect_forward_pin(deit_small(), units(1), PrecisionPolicy::all_bfp8(),
                     0x7decd51748a40af0ULL,
                     "macs=4540695552 linear=21375936 vector=184658760 "
                     "fp_mul=125868816 fp_add=160586520 exp=0 div=18912 "
                     "other=12013848");
}

TEST(ClusterBytePins, VitTinyTensor2) {
  expect_cluster_pin(vit_test_tiny(), PartitionStrategy::kTensor, 2,
                     0xc99bbd9456e9ada7ULL,
                     "cards=[20976,20976] sends=[] compute=20976 "
                     "collective=6288 bytes=60928 macs=1745152");
}

TEST(ClusterBytePins, DeitSmallTensor2) {
  expect_cluster_pin(deit_small(), PartitionStrategy::kTensor, 2,
                     0x7decd51748a40af0ULL,
                     "cards=[8006112,8006112] sends=[] compute=8006112 "
                     "collective=917760 bytes=25417728 macs=4540695552");
}

TEST(ClusterBytePins, DeitSmallTensor3) {
  expect_cluster_pin(deit_small(), PartitionStrategy::kTensor, 3,
                     0x7decd51748a40af0ULL,
                     "cards=[5832360,5832360,5832360] sends=[] "
                     "compute=5832360 collective=1240704 bytes=50835456 "
                     "macs=4540695552");
}

TEST(ClusterBytePins, DeitSmallPipeline3) {
  expect_cluster_pin(deit_small(), PartitionStrategy::kPipeline, 3,
                     0x7decd51748a40af0ULL,
                     "cards=[4854336,4854336,4854336] sends=[21780,21780] "
                     "compute=14563008 collective=43560 bytes=605184 "
                     "macs=4540695552");
}

}  // namespace
}  // namespace bfpsim
