// Tests for the batch serving model and checkpointing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/partition.hpp"
#include "runtime/session.hpp"
#include "serving/event_loop.hpp"
#include "transformer/checkpoint.hpp"

namespace bfpsim {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Absolute pins of the whole-image-per-unit batch numbers: the analytic
// batch (bfpsim batch, bench_batch_serving) and Session::infer_batch.
// Doubles are pinned by bit pattern, so any change in how the makespan,
// images/s or utilization is computed shows up here.

struct BatchNumbers {
  std::uint64_t per_image_cycles = 0;
  std::uint64_t makespan_cycles = 0;
  std::uint64_t images_per_second_bits = 0;
  std::uint64_t utilization_bits = 0;
};

/// One image of `cfg` priced on a one-unit system, as bfpsim batch and
/// bench_batch_serving price it: the compiled program less its DMA moves.
std::uint64_t image_cycles(const VitConfig& cfg) {
  SystemConfig one;
  one.num_units = 1;
  const AcceleratorSystem unit(one);
  const ExecutionStats price = compile_vit(cfg, unit).price();
  return price.device_cycles - price.move_cycles;
}

/// `batch` images of `cycles` each served as a cycle-0 burst on the
/// default system, each alone on the lowest free unit.
ServeReport serve_batch(std::uint64_t cycles, int batch) {
  const SystemConfig sys;
  BackendSpec units;
  units.executors = sys.num_units;
  units.freq_hz = sys.pu.freq_hz;
  units.passes.assign(static_cast<std::size_t>(batch), {0, cycles, 0});
  return serve_events(
      units, batch_trace(batch, units.freq_hz),
      {.queue_capacity = static_cast<std::size_t>(batch), .max_batch = 1});
}

BatchNumbers analytic_batch(std::uint64_t cycles, int batch) {
  const ServeReport r = serve_batch(cycles, batch);
  return {cycles, r.makespan_cycles,
          std::bit_cast<std::uint64_t>(r.completed_rps),
          std::bit_cast<std::uint64_t>(r.utilization)};
}

struct AnalyticPin {
  const char* model;
  int batch;
  BatchNumbers want;
};

TEST(BatchPins, AnalyticBatch) {
  const AnalyticPin pins[] = {
      {"deit-tiny", 1,
       {98141472u, 98141472u, 0x40087459b17b914au, 0x3fb1111111111111u}},
      {"deit-tiny", 4,
       {98141472u, 98141472u, 0x40287459b17b914au, 0x3fd1111111111111u}},
      {"deit-tiny", 8,
       {98141472u, 98141472u, 0x40387459b17b914au, 0x3fe1111111111111u}},
      {"deit-tiny", 15,
       {98141472u, 98141472u, 0x4046ed141663d836u, 0x3ff0000000000000u}},
      {"deit-tiny", 16,
       {98141472u, 196282944u, 0x40387459b17b914au, 0x3fe1111111111111u}},
      {"deit-tiny", 20,
       {98141472u, 196282944u, 0x403e91701dda759du, 0x3fe5555555555555u}},
      {"deit-tiny", 30,
       {98141472u, 196282944u, 0x4046ed141663d836u, 0x3ff0000000000000u}},
      {"deit-tiny", 60,
       {98141472u, 392565888u, 0x4046ed141663d836u, 0x3ff0000000000000u}},
      {"deit-small", 1,
       {206034696u, 206034696u, 0x3ff74c0b45fa9d3bu, 0x3fb1111111111111u}},
      {"deit-small", 4,
       {206034696u, 206034696u, 0x40174c0b45fa9d3bu, 0x3fd1111111111111u}},
      {"deit-small", 8,
       {206034696u, 206034696u, 0x40274c0b45fa9d3bu, 0x3fe1111111111111u}},
      {"deit-small", 15,
       {206034696u, 206034696u, 0x4035d74a919af367u, 0x3ff0000000000000u}},
      {"deit-small", 16,
       {206034696u, 412069392u, 0x40274c0b45fa9d3bu, 0x3fe1111111111111u}},
      {"deit-small", 20,
       {206034696u, 412069392u, 0x402d1f0e17794489u, 0x3fe5555555555555u}},
      {"deit-small", 30,
       {206034696u, 412069392u, 0x4035d74a919af367u, 0x3ff0000000000000u}},
      {"deit-small", 60,
       {206034696u, 824138784u, 0x4035d74a919af367u, 0x3ff0000000000000u}},
  };
  const std::uint64_t tiny = image_cycles(deit_tiny());
  const std::uint64_t small = image_cycles(deit_small());
  for (const AnalyticPin& p : pins) {
    const BatchNumbers got = analytic_batch(
        std::string(p.model) == "deit-tiny" ? tiny : small, p.batch);
    const std::string row = std::string("{\"") + p.model + "\", " +
                            std::to_string(p.batch) + ", {" +
                            std::to_string(got.per_image_cycles) + "u, " +
                            std::to_string(got.makespan_cycles) + "u, 0x" +
                            hex(got.images_per_second_bits) + "u, 0x" +
                            hex(got.utilization_bits) + "u}},";
    EXPECT_EQ(got.per_image_cycles, p.want.per_image_cycles) << row;
    EXPECT_EQ(got.makespan_cycles, p.want.makespan_cycles) << row;
    EXPECT_EQ(got.images_per_second_bits, p.want.images_per_second_bits)
        << row;
    EXPECT_EQ(got.utilization_bits, p.want.utilization_bits) << row;
  }
}

TEST(BatchServing, ThroughputScalesUpToUnitCount) {
  const std::uint64_t cycles = image_cycles(deit_small());
  const ServeReport b1 = serve_batch(cycles, 1);
  const ServeReport b15 = serve_batch(cycles, 15);
  const ServeReport b30 = serve_batch(cycles, 30);
  // Per-image latency is batch-independent (each image owns one unit).
  for (const ServeReport* r : {&b1, &b15}) {
    for (const LatencyRecord& rec : r->records) {
      EXPECT_EQ(rec.service_cycles(), cycles);
    }
  }
  // Throughput scales linearly to 15 images, then holds (two rounds).
  EXPECT_NEAR(b15.completed_rps / b1.completed_rps, 15.0, 0.01);
  EXPECT_NEAR(b30.completed_rps, b15.completed_rps, 1e-6);
  EXPECT_DOUBLE_EQ(b15.utilization, 1.0);
}

TEST(BatchServing, PartialBatchWastesUnits) {
  const ServeReport b20 = serve_batch(image_cycles(deit_small()), 20);
  // 20 images on 15 units: two rounds, 10 units idle in round 2.
  EXPECT_NEAR(b20.utilization, 20.0 / 30.0, 1e-9);
}

TEST(BatchPins, AnalyticImageIsSessionImage) {
  // bfpsim batch prices an image as Session::infer_batch charges it: the
  // one-unit program's cycles less its moves are forward_mixed's cycles.
  const VitConfig cfg = deit_tiny();
  Session session;
  const ModelId id = session.deploy(random_weights(cfg, 42));
  const std::vector<std::vector<float>> images = {random_embeddings(cfg, 1)};
  const Session::BatchInference b = session.infer_batch(id, images);
  ASSERT_EQ(b.results.size(), 1u);
  EXPECT_EQ(image_cycles(cfg), b.results[0].stats.total_cycles());
  EXPECT_EQ(b.makespan_cycles, b.results[0].stats.total_cycles());
}

struct SessionPin {
  int batch;
  BatchNumbers want;  ///< per_image_cycles = results[0].total_cycles
  std::uint64_t features_digest;
};

TEST(BatchPins, SessionInferBatch) {
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 50);
  const SessionPin pins[] = {
      {1,
       {261412u, 261172u, 0x4091f2ac59990c47u, 0x3fb1111111111111u},
       0xd0f0a69deecdb276u},
      {4,
       {261412u, 261172u, 0x40b1f2ac59990c47u, 0x3fd1111111111111u},
       0x71163814c51027f6u},
      {15,
       {261412u, 261172u, 0x40d0d38193ff7b82u, 0x3ff0000000000000u},
       0x64e3f74adf967f1au},
      {16,
       {261412u, 522344u, 0x40c1f2ac59990c47u, 0x3fe1111111111111u},
       0xf57958b5e616cc4bu},
      {30,
       {261412u, 522344u, 0x40d0d38193ff7b82u, 0x3ff0000000000000u},
       0x88235b79fb970901u},
  };
  for (const SessionPin& p : pins) {
    std::vector<std::vector<float>> images;
    for (int i = 0; i < p.batch; ++i) {
      images.push_back(
          random_embeddings(cfg, 60 + static_cast<std::uint64_t>(i)));
    }
    Session session;
    const ModelId id = session.deploy(w);
    const Session::BatchInference b = session.infer_batch(id, images);
    ASSERT_EQ(b.results.size(), images.size());
    std::uint64_t digest = 14695981039346656037ULL;
    for (const InferenceResult& r : b.results) {
      for (const float f : r.features) {
        digest ^= std::bit_cast<std::uint32_t>(f);
        digest *= 1099511628211ULL;
      }
      EXPECT_EQ(r.total_cycles, b.results[0].total_cycles);
    }
    const std::string row =
        "{" + std::to_string(p.batch) + ", {" +
        std::to_string(b.results[0].total_cycles) + "u, " +
        std::to_string(b.makespan_cycles) + "u, 0x" +
        hex(std::bit_cast<std::uint64_t>(b.images_per_second)) + "u, 0x" +
        hex(std::bit_cast<std::uint64_t>(b.utilization)) + "u}, 0x" +
        hex(digest) + "u},";
    EXPECT_EQ(b.results[0].total_cycles, p.want.per_image_cycles) << row;
    EXPECT_EQ(b.makespan_cycles, p.want.makespan_cycles) << row;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.images_per_second),
              p.want.images_per_second_bits)
        << row;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.utilization),
              p.want.utilization_bits)
        << row;
    EXPECT_EQ(digest, p.features_digest) << row;
  }
}

TEST(Checkpoint, WeightsRoundTrip) {
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 5);
  std::stringstream ss;
  save_weights(ss, w);
  const VitWeights back = load_weights(ss);
  EXPECT_EQ(back.cfg.embed_dim, cfg.embed_dim);
  EXPECT_EQ(back.blocks.size(), w.blocks.size());
  for (std::size_t i = 0; i < w.blocks.size(); ++i) {
    ASSERT_EQ(back.blocks[i].qkv_w, w.blocks[i].qkv_w);
    ASSERT_EQ(back.blocks[i].fc2_b, w.blocks[i].fc2_b);
  }
  EXPECT_EQ(back.head_w, w.head_w);
}

TEST(Checkpoint, WeightsFileRoundTripAndForwardEquivalence) {
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 6);
  const std::string path = "/tmp/bfpsim_test_weights.bin";
  save_weights_file(path, w);
  const VitModel a{w};
  const VitModel b{load_weights_file(path)};
  const auto x = random_embeddings(cfg, 9);
  const auto ya = a.forward_reference(x);
  const auto yb = b.forward_reference(x);
  for (std::size_t i = 0; i < ya.size(); ++i) ASSERT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptHeader) {
  std::stringstream ss;
  ss << "garbage-not-a-checkpoint";
  EXPECT_THROW(load_weights(ss), Error);
}

TEST(Checkpoint, BfpMatrixRoundTrip) {
  Rng rng(7);
  const auto data = rng.normal_vec(40 * 24, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 40, 24, bfp8_format());
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  const BfpMatrix back = load_bfp_matrix(ss);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.cols, m.cols);
  ASSERT_EQ(back.blocks.size(), m.blocks.size());
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    ASSERT_EQ(back.blocks[i].expb, m.blocks[i].expb);
    ASSERT_EQ(back.blocks[i].man, m.blocks[i].man);
  }
}

TEST(Checkpoint, BfpMatrixWideMantissaRoundTrip) {
  Rng rng(8);
  BfpFormat fmt = bfp8_format();
  fmt.mant_bits = 12;
  const auto data = rng.normal_vec(16 * 16, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 16, 16, fmt);
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  const BfpMatrix back = load_bfp_matrix(ss);
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    ASSERT_EQ(back.blocks[i].man, m.blocks[i].man);
  }
}

TEST(Checkpoint, BfpImageBytesMatchesStream) {
  Rng rng(9);
  const auto data = rng.normal_vec(16 * 16, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 16, 16, bfp8_format());
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  EXPECT_EQ(ss.str().size(), bfp_image_bytes(m));
}

TEST(Checkpoint, BfpMatrixRejectsTruncation) {
  Rng rng(10);
  const auto data = rng.normal_vec(16 * 16, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 16, 16, bfp8_format());
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  std::string s = ss.str();
  s.resize(s.size() / 2);
  std::stringstream cut(s);
  EXPECT_THROW(load_bfp_matrix(cut), Error);
}

}  // namespace
}  // namespace bfpsim
