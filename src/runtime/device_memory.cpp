#include "runtime/device_memory.hpp"

#include "common/error.hpp"

namespace bfpsim {

DeviceMemory::DeviceMemory(std::uint64_t capacity_bytes,
                           const HbmConfig& hbm)
    : capacity_(capacity_bytes), hbm_(hbm) {
  BFP_REQUIRE(capacity_bytes >= kAlignment,
              "DeviceMemory: capacity too small");
  hbm_.validate();
  free_list_[0] = capacity_;
}

DeviceBuffer DeviceMemory::alloc(std::uint64_t bytes) {
  BFP_REQUIRE(bytes > 0, "DeviceMemory::alloc: zero-size allocation");
  const std::uint64_t need =
      (bytes + kAlignment - 1) / kAlignment * kAlignment;
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->second < need) continue;
    const std::uint64_t addr = it->first;
    const std::uint64_t remain = it->second - need;
    free_list_.erase(it);
    if (remain > 0) free_list_[addr + need] = remain;
    live_[addr] = need;
    allocated_ += need;
    return DeviceBuffer{addr, need};
  }
  throw Error("DeviceMemory::alloc: out of device memory (" +
              std::to_string(bytes) + " bytes requested, " +
              std::to_string(free_bytes()) + " free)");
}

void DeviceMemory::free(const DeviceBuffer& buf) {
  const auto it = live_.find(buf.addr);
  BFP_REQUIRE(it != live_.end() && it->second == buf.bytes,
              "DeviceMemory::free: not a live allocation");
  live_.erase(it);
  allocated_ -= buf.bytes;

  // Insert and coalesce with neighbours.
  auto [ins, ok] = free_list_.emplace(buf.addr, buf.bytes);
  BFP_ASSERT(ok);
  // Merge with next extent.
  auto next = std::next(ins);
  if (next != free_list_.end() && ins->first + ins->second == next->first) {
    ins->second += next->second;
    free_list_.erase(next);
  }
  // Merge with previous extent.
  if (ins != free_list_.begin()) {
    auto prev = std::prev(ins);
    if (prev->first + prev->second == ins->first) {
      prev->second += ins->second;
      free_list_.erase(ins);
    }
  }
}

std::uint64_t DeviceMemory::transfer(const DeviceBuffer& buf,
                                     std::uint64_t offset,
                                     std::uint64_t bytes) const {
  BFP_REQUIRE(live_.count(buf.addr) != 0,
              "DeviceMemory::transfer: not a live allocation");
  BFP_REQUIRE(offset <= buf.bytes && bytes <= buf.bytes - offset,
              "DeviceMemory::transfer: out of bounds");
  return transfer_cycles(hbm_, bytes, hbm_.bfp_burst_bytes);
}

}  // namespace bfpsim
