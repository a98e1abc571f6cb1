// Device (HBM) memory management for the host runtime: a first-fit
// allocator over the accelerator's HBM address space, plus DMA transfer
// accounting through the fabric's memory model.
//
// The Alveo U280 carries 8 GiB of HBM2; the runtime models it as a flat
// address space. It holds no bytes: a transfer's price depends only on
// its byte count, so DeviceMemory tracks which ranges are allocated and
// meters each DMA in cycles, and host memory stays flat however much of
// the simulated HBM is in use. Buffers are 64-byte aligned (one AXI beat
// across the unit's channel pair) as a real shell would require.
#pragma once

#include <cstdint>
#include <map>

#include "fabric/hbm.hpp"

namespace bfpsim {

/// A device allocation handle.
struct DeviceBuffer {
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;

  bool valid() const { return bytes != 0; }
};

class DeviceMemory {
 public:
  static constexpr std::uint64_t kDefaultCapacity = kHbmCapacityBytes;
  static constexpr std::uint64_t kAlignment = kHbmAlignment;

  explicit DeviceMemory(std::uint64_t capacity_bytes = kDefaultCapacity,
                        const HbmConfig& hbm = HbmConfig{});

  /// Allocate (first fit). Throws bfpsim::Error when out of memory.
  DeviceBuffer alloc(std::uint64_t bytes);

  /// Release an allocation (coalesces with free neighbours).
  void free(const DeviceBuffer& buf);

  /// A DMA of `bytes` at `offset` into `buf`, either direction; returns
  /// the modelled transfer cycles. Throws bfpsim::Error when `buf` is not
  /// a live allocation or the range overruns it.
  std::uint64_t transfer(const DeviceBuffer& buf, std::uint64_t offset,
                         std::uint64_t bytes) const;

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t allocated_bytes() const { return allocated_; }
  std::uint64_t free_bytes() const { return capacity_ - allocated_; }
  std::size_t allocation_count() const { return live_.size(); }

 private:
  std::uint64_t capacity_;
  HbmConfig hbm_;
  std::uint64_t allocated_ = 0;
  /// Free extents: addr -> bytes, disjoint and coalesced.
  std::map<std::uint64_t, std::uint64_t> free_list_;
  /// Live allocations: addr -> bytes (for validation on free/transfer).
  std::map<std::uint64_t, std::uint64_t> live_;
};

}  // namespace bfpsim
