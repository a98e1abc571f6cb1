// fp32 operands that sit on representation boundaries, shared by the
// sliced-datapath tests (test_slices.cpp, test_golden_diff.cpp).
#pragma once

#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

namespace bfpsim {

/// Zeros, subnormal extremes, normal extremes, power-of-two and all-ones
/// mantissas.
inline std::vector<float> boundary_operands() {
  return {
      0.0F,
      -0.0F,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      0.5F * FLT_MIN,                        // mid subnormal
      FLT_MIN,                               // smallest normal
      -FLT_MIN,
      std::nextafterf(FLT_MIN, 0.0F),        // largest subnormal
      1.0F,
      1.0F + FLT_EPSILON,                    // LSB-only fraction
      std::nextafterf(2.0F, 0.0F),           // all-ones mantissa
      -std::nextafterf(2.0F, 0.0F),
      3.0F,
      65536.0F,
      1.0e30F,
      -1.0e30F,
      std::sqrt(FLT_MAX),
  };
}

}  // namespace bfpsim
