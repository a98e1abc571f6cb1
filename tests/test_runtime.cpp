// Tests for the host runtime: device memory allocator behaviour (first
// fit, coalescing, OOM), DMA checks and pricing, and the deploy/infer
// session flow.
#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace bfpsim {
namespace {

TEST(DeviceMemory, AllocAlignAndAccount) {
  DeviceMemory mem(1 << 20);
  const DeviceBuffer a = mem.alloc(100);
  EXPECT_EQ(a.addr % DeviceMemory::kAlignment, 0u);
  EXPECT_EQ(a.bytes, 128u);  // rounded to the 64 B alignment
  EXPECT_EQ(mem.allocated_bytes(), 128u);
  const DeviceBuffer b = mem.alloc(64);
  EXPECT_GE(b.addr, a.addr + a.bytes);
  mem.free(a);
  mem.free(b);
  EXPECT_EQ(mem.allocated_bytes(), 0u);
  EXPECT_EQ(mem.allocation_count(), 0u);
}

TEST(DeviceMemory, FirstFitReusesFreedHoles) {
  DeviceMemory mem(1 << 16);
  const DeviceBuffer a = mem.alloc(256);
  const DeviceBuffer b = mem.alloc(256);
  const DeviceBuffer c = mem.alloc(256);
  (void)c;
  mem.free(a);
  mem.free(b);  // coalesces with a -> hole of 512 at the front
  const DeviceBuffer d = mem.alloc(512);
  EXPECT_EQ(d.addr, a.addr);
}

TEST(DeviceMemory, CoalescingBothSides) {
  DeviceMemory mem(1 << 16);
  const DeviceBuffer a = mem.alloc(128);
  const DeviceBuffer b = mem.alloc(128);
  const DeviceBuffer c = mem.alloc(128);
  mem.free(a);
  mem.free(c);
  mem.free(b);  // merges with both neighbours
  // Whole space is one extent again: a full-capacity alloc succeeds.
  EXPECT_NO_THROW(mem.alloc((1 << 16) - 0));
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  DeviceMemory mem(1 << 12);
  EXPECT_THROW(mem.alloc(1 << 13), Error);
  const DeviceBuffer a = mem.alloc(1 << 12);
  (void)a;
  EXPECT_THROW(mem.alloc(64), Error);
}

TEST(DeviceMemory, DoubleFreeAndBogusFreeRejected) {
  DeviceMemory mem(1 << 16);
  const DeviceBuffer a = mem.alloc(64);
  mem.free(a);
  EXPECT_THROW(mem.free(a), Error);
  EXPECT_THROW(mem.free(DeviceBuffer{12345, 64}), Error);
}

TEST(DeviceMemory, TransferChecksAndCycles) {
  const HbmConfig hbm;
  DeviceMemory mem(1 << 22, hbm);
  const DeviceBuffer a = mem.alloc(256);
  // In bounds up to the allocation's end; one byte past it is rejected.
  EXPECT_NO_THROW(mem.transfer(a, 8, 248));
  EXPECT_THROW(mem.transfer(a, 0, 257), Error);
  EXPECT_THROW(mem.transfer(a, 200, 57), Error);
  EXPECT_THROW(mem.transfer(a, 257, 0), Error);
  EXPECT_THROW(mem.transfer(a, ~0ULL, 2), Error);  // offset + bytes wraps
  // Only live allocations: a freed buffer and a made-up one are rejected.
  const DeviceBuffer b = mem.alloc(64);
  mem.free(b);
  EXPECT_THROW(mem.transfer(b, 0, 1), Error);
  EXPECT_THROW(mem.transfer(DeviceBuffer{12345, 64}, 0, 1), Error);

  // The charge is the HBM model's price for the byte count: 1 B, one AXI
  // beat, one burst, and an llm-decode 16-token KV page (~1.5 MiB).
  const std::uint64_t page = 1597440;
  const DeviceBuffer big = mem.alloc(page);
  for (const std::uint64_t bytes :
       {std::uint64_t{1}, std::uint64_t{64},
        static_cast<std::uint64_t>(hbm.bfp_burst_bytes), page}) {
    EXPECT_EQ(mem.transfer(big, 0, bytes),
              transfer_cycles(hbm, bytes, hbm.bfp_burst_bytes))
        << bytes << " B";
  }
  EXPECT_GT(mem.transfer(big, 0, page), mem.transfer(big, 0, 1));
}

TEST(Session, DeployReportsFootprintAndCompression) {
  Session session;
  const VitConfig cfg = vit_test_tiny();
  const ModelId id = session.deploy(random_weights(cfg, 31), "tiny");
  const DeploymentInfo& info = session.info(id);
  EXPECT_EQ(info.name, "tiny");
  EXPECT_GT(info.quantized_weight_bytes, 0u);
  EXPECT_GT(info.fp32_param_bytes, 0u);
  EXPECT_GT(info.upload_cycles, 0u);
  // bfp8 stores ~1 byte + 1/64 exponent per element vs 4 bytes fp32:
  // compression close to 3.9x (headers cost a little).
  EXPECT_GT(info.compression_ratio, 3.5);
  EXPECT_LT(info.compression_ratio, 4.0);
  EXPECT_GT(session.memory().allocated_bytes(), 0u);
}

TEST(Session, InferMatchesDirectMixedForward) {
  Session session;
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 32);
  const ModelId id = session.deploy(w);
  const auto x = random_embeddings(cfg, 33);
  const InferenceResult r = session.infer(id, x);

  const VitModel direct(w);
  const AcceleratorSystem sys;
  const auto expect = direct.forward_mixed(x, sys);
  ASSERT_EQ(r.features.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(r.features[i], expect[i]);
  }
  EXPECT_EQ(r.logits.size(),
            static_cast<std::size_t>(cfg.num_classes));
  EXPECT_GT(r.dma_cycles, 0u);
  EXPECT_GT(r.total_cycles, r.stats.total_cycles());
  EXPECT_GT(r.latency_ms(300e6), 0.0);
}

TEST(Session, CommandLogCoversTheFlow) {
  Session session;
  const VitConfig cfg = vit_test_tiny();
  const ModelId id = session.deploy(random_weights(cfg, 34));
  session.clear_log();
  session.infer(id, random_embeddings(cfg, 35));
  bool saw_in = false;
  bool saw_compute = false;
  bool saw_out = false;
  for (const CommandRecord& c : session.log()) {
    saw_in |= c.kind == CommandRecord::Kind::kDmaIn;
    saw_compute |= c.kind == CommandRecord::Kind::kCompute;
    saw_out |= c.kind == CommandRecord::Kind::kDmaOut;
  }
  EXPECT_TRUE(saw_in);
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_out);
}

TEST(Session, BatchInferenceSchedulesAcrossUnits) {
  Session session;
  const VitConfig cfg = vit_test_tiny();
  const ModelId id = session.deploy(random_weights(cfg, 50));
  std::vector<std::vector<float>> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(random_embeddings(cfg, 60 + static_cast<std::uint64_t>(i)));
  }
  const Session::BatchInference b = session.infer_batch(id, batch);
  ASSERT_EQ(b.results.size(), 4u);
  // 4 images on 15 units: one round; the makespan is one image's forward
  // on a single-unit system.
  SystemConfig one;
  one.num_units = 1;
  ForwardStats stats;
  (void)VitModel(random_weights(cfg, 50))
      .forward_mixed(batch[0], AcceleratorSystem(one), &stats);
  EXPECT_EQ(b.makespan_cycles, stats.total_cycles());
  EXPECT_EQ(b.makespan_cycles, b.results[0].stats.total_cycles());
  EXPECT_NEAR(b.utilization, 4.0 / 15.0, 1e-9);
  EXPECT_GT(b.images_per_second, 0.0);
  // Each image's functional result matches a solo inference.
  const InferenceResult solo = session.infer(id, batch[0]);
  for (std::size_t i = 0; i < solo.features.size(); ++i) {
    ASSERT_EQ(b.results[0].features[i], solo.features[i]);
  }
  const std::vector<std::vector<float>> empty;
  EXPECT_THROW(session.infer_batch(id, empty), Error);
}

TEST(Session, UndeployReleasesMemory) {
  Session session;
  const VitConfig cfg = vit_test_tiny();
  const ModelId id = session.deploy(random_weights(cfg, 36));
  const std::uint64_t used = session.memory().allocated_bytes();
  EXPECT_GT(used, 0u);
  session.undeploy(id);
  EXPECT_EQ(session.memory().allocated_bytes(), 0u);
  EXPECT_THROW(session.infer(id, random_embeddings(cfg, 37)), Error);
  EXPECT_THROW(session.undeploy(id), Error);
}

TEST(Session, MultipleModelsCoexist) {
  Session session;
  const ModelId a = session.deploy(random_weights(vit_test_tiny(), 38));
  VitConfig other = vit_test_tiny();
  other.depth = 1;
  other.name = "one-block";
  const ModelId b = session.deploy(random_weights(other, 39));
  EXPECT_NE(a, b);
  const auto xa = random_embeddings(vit_test_tiny(), 40);
  const auto xb = random_embeddings(other, 41);
  EXPECT_NO_THROW(session.infer(a, xa));
  EXPECT_NO_THROW(session.infer(b, xb));
  // Wrong-shape inputs are rejected per model.
  EXPECT_THROW(session.infer(b, std::vector<float>(3, 0.0F)), Error);
}

}  // namespace
}  // namespace bfpsim
