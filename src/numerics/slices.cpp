#include "numerics/slices.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "numerics/bfp_kernel.hpp"

namespace bfpsim {

#if BFPSIM_KERNEL_AVX2
namespace detail {
// bfp_kernel_avx2.cpp: the runtime CPUID check.
bool avx2_runtime_supported();
// slices_avx2.cpp: the 8-lane aligned add over the leading whole groups of
// n; returns how many elements it wrote, stopping before the first group
// that holds a NaN or Inf.
std::size_t fp32_add_aligned_avx2(const float* x, const float* y, float* out,
                                  std::size_t n);
}  // namespace detail
#endif

MantissaSlices slice_mantissa(std::uint32_t man24) {
  BFP_REQUIRE(man24 < (std::uint32_t{1} << kFp32MantBits),
              "slice_mantissa: mantissa must fit 24 bits");
  MantissaSlices sl;
  for (int i = 0; i < kNumSlices; ++i) {
    sl.s[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>((man24 >> (8 * i)) & 0xFF);
  }
  return sl;
}

std::uint32_t join_slices(const MantissaSlices& sl) {
  std::uint32_t m = 0;
  for (int i = 0; i < kNumSlices; ++i) {
    m |= static_cast<std::uint32_t>(sl[i]) << (8 * i);
  }
  return m;
}

const std::array<PartialProductTerm, kNumPartialProducts>&
fp32_mul_schedule() {
  // Pre-shift split per relative shift:
  //   0  -> (0, 0)
  //   8  -> (4, 4)   (the paper's "row 1 shifts X_c and Y_c by 4 bits")
  //   16 -> (8, 8)
  //   24 -> (16, 8)  (X path has the wider 27-bit port)
  // Port-width check: X slice 8b << 16 = 24b <= 26 usable bits of the signed
  // 27-bit A:D path; Y slice 8b << 8 = 16b <= 17 usable bits of the signed
  // 18-bit B path.
  static const std::array<PartialProductTerm, kNumPartialProducts> kSchedule =
      [] {
        auto split = [](int rel) -> std::pair<int, int> {
          switch (rel) {
            case 0: return {0, 0};
            case 8: return {4, 4};
            case 16: return {8, 8};
            case 24: return {16, 8};
            default: BFP_ASSERT(false); return {0, 0};
          }
        };
        std::array<PartialProductTerm, kNumPartialProducts> t{};
        int row = 0;
        for (int i = 0; i < kNumSlices; ++i) {
          for (int j = 0; j < kNumSlices; ++j) {
            if (i == 0 && j == 0) continue;  // omitted LSB partial product
            PartialProductTerm& term = t[static_cast<std::size_t>(row++)];
            term.xi = i;
            term.yj = j;
            term.rel_shift = 8 * (i + j) - kDroppedShift;
            const auto [sx, sy] = split(term.rel_shift);
            term.pre_shift_x = sx;
            term.pre_shift_y = sy;
          }
        }
        BFP_ASSERT(row == kNumPartialProducts);
        return t;
      }();
  return kSchedule;
}

void fp32_add_aligned(std::span<const float> x, std::span<const float> y,
                      std::span<float> out) {
  BFP_REQUIRE(x.size() == y.size() && out.size() == x.size(),
              "fp32_add_aligned: spans must have equal length");
  const std::size_t n = x.size();
#if BFPSIM_KERNEL_AVX2
  static const bool avx2 = detail::avx2_runtime_supported();
  if (avx2 && active_kernel_tier() == KernelTier::kSimd) {
    for (std::size_t i = 0; i < n;) {
      i += detail::fp32_add_aligned_avx2(x.data() + i, y.data() + i,
                                         out.data() + i, n - i);
      // The group the vector body refused, or the tail.
      for (const std::size_t stop = std::min(n, i + 8); i < stop; ++i) {
        out[i] = fp32_add_aligned(x[i], y[i]);
      }
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = fp32_add_aligned(x[i], y[i]);
}

}  // namespace bfpsim
