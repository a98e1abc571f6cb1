#include "numerics/slices.hpp"

#include <utility>

#include "common/error.hpp"

namespace bfpsim {

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

}  // namespace bfpsim
