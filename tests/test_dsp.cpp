// Tests for the DSP48E2 slice model and combined-MAC packing —
// including the paper's overflow claims about 7- vs 8-term accumulation.
#include "dsp/dsp48e2.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/packing.hpp"

namespace bfpsim {
namespace {

TEST(Dsp48e2, SimpleMultiply) {
  Dsp48e2 d;
  EXPECT_EQ(d.eval(3, 4, 0, 0, 0, DspAccSrc::kZero, false), 12);
  EXPECT_EQ(d.eval(-5, 7, 0, 0, 0, DspAccSrc::kZero, false), -35);
}

TEST(Dsp48e2, SelfAccumulate) {
  Dsp48e2 d;
  d.mac_accumulate(2, 3);
  d.mac_accumulate(4, 5);
  EXPECT_EQ(d.p(), 26);
  d.reset();
  EXPECT_EQ(d.p(), 0);
}

TEST(Dsp48e2, PreAdder) {
  Dsp48e2 d;
  EXPECT_EQ(d.eval(10, 3, 5, 0, 0, DspAccSrc::kZero, true), 45);  // (10+5)*3
}

TEST(Dsp48e2, CSourceAndPcin) {
  Dsp48e2 d;
  EXPECT_EQ(d.eval(2, 3, 0, 100, 0, DspAccSrc::kC, false), 106);
  EXPECT_EQ(d.eval(2, 3, 0, 0, 1000, DspAccSrc::kPcin, false), 1006);
}

TEST(Dsp48e2, PortWidthViolationsThrow) {
  Dsp48e2 d;
  // A: 27-bit signed max is 2^26 - 1.
  EXPECT_NO_THROW(d.eval((1 << 26) - 1, 1, 0, 0, 0, DspAccSrc::kZero, false));
  EXPECT_THROW(d.eval(1 << 26, 1, 0, 0, 0, DspAccSrc::kZero, false),
               HardwareContractError);
  // B: 18-bit signed max is 2^17 - 1.
  EXPECT_NO_THROW(d.eval(1, (1 << 17) - 1, 0, 0, 0, DspAccSrc::kZero, false));
  EXPECT_THROW(d.eval(1, 1 << 17, 0, 0, 0, DspAccSrc::kZero, false),
               HardwareContractError);
  // Pre-adder overflow.
  EXPECT_THROW(
      d.eval((1 << 26) - 1, 1, (1 << 26) - 1, 0, 0, DspAccSrc::kZero, true),
      HardwareContractError);
}

TEST(Dsp48e2, OpCounting) {
  Dsp48e2 d;
  d.mac_accumulate(1, 1);
  d.mac_accumulate(1, 1);
  EXPECT_EQ(d.op_count(), 2u);
}

TEST(Packing, PackUnpackSingleProduct) {
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t a = rng.uniform_int(-127, 127);
    const std::int64_t d = rng.uniform_int(-127, 127);
    const std::int64_t b = rng.uniform_int(-127, 127);
    const std::int64_t p = pack_dual(a, d) * b;
    const DualLanes lanes = unpack_dual(p);
    EXPECT_EQ(lanes.upper, a * b) << a << " " << d << " " << b;
    EXPECT_EQ(lanes.lower, d * b);
  }
}

TEST(Packing, PackRejectsWideOperands) {
  EXPECT_THROW(pack_dual(128, 0), HardwareContractError);
  EXPECT_THROW(pack_dual(0, -129), HardwareContractError);
}

TEST(Packing, EightTermAccumulationExactForSymmetricRange) {
  // The paper's claim (Section II-B): with 8 rows, the combined MAC is
  // overflow-free. That holds because symmetric quantization keeps
  // mantissas in [-127, 127]: 8 * 127 * 127 = 129032 < 2^17.
  EXPECT_TRUE(packed_accumulation_safe(8, 127));
  Rng rng(32);
  for (int trial = 0; trial < 2000; ++trial) {
    std::int64_t p = 0;
    std::int64_t sum_upper = 0;
    std::int64_t sum_lower = 0;
    for (int k = 0; k < 8; ++k) {
      const std::int64_t a = rng.uniform_int(-127, 127);
      const std::int64_t d = rng.uniform_int(-127, 127);
      const std::int64_t b = rng.uniform_int(-127, 127);
      p += pack_dual(a, d) * b;
      sum_upper += a * b;
      sum_lower += d * b;
    }
    const DualLanes lanes = unpack_dual(p);
    EXPECT_EQ(lanes.upper, sum_upper);
    EXPECT_EQ(lanes.lower, sum_lower);
  }
}

TEST(Packing, EightTermWorstCaseFailsWithFullAsymmetricRange) {
  // With -128 allowed (asymmetric int8), eight worst-case terms overflow
  // the 18-bit lane — demonstrating why the quantizer is symmetric.
  EXPECT_FALSE(packed_accumulation_safe(8, 128));
  std::int64_t p = 0;
  for (int k = 0; k < 8; ++k) {
    p += pack_dual(0, -128) * -128;  // lower-lane products of +16384
  }
  const DualLanes lanes = unpack_dual(p);
  // True lower sum is 131072 = 2^17, which wraps in the 18-bit lane.
  EXPECT_NE(lanes.lower, 8 * 16384);
}

TEST(Packing, SevenTermsSafeEvenAsymmetric) {
  // WP486's classic bound: up to 7 worst-case asymmetric products fit.
  EXPECT_TRUE(packed_accumulation_safe(7, 128));
  std::int64_t p = 0;
  for (int k = 0; k < 7; ++k) {
    p += pack_dual(0, -128) * -128;
  }
  EXPECT_EQ(unpack_dual(p).lower, 7 * 16384);
}

}  // namespace
}  // namespace bfpsim
