// Device (HBM) memory management for the host runtime: a first-fit
// allocator over the accelerator's HBM address space, plus DMA transfer
// accounting through the fabric's memory model.
//
// The Alveo U280 carries 8 GiB of HBM2; the runtime models it as a flat
// byte space. Buffers are 64-byte aligned (one AXI beat across the unit's
// channel pair) as a real shell would require.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

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

  /// Host -> device copy; returns the modelled transfer cycles.
  std::uint64_t write(const DeviceBuffer& buf, std::uint64_t offset,
                      std::span<const std::uint8_t> data);

  /// Device -> host copy; returns the modelled transfer cycles.
  std::uint64_t read(const DeviceBuffer& buf, std::uint64_t offset,
                     std::span<std::uint8_t> out) const;

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
  /// Live allocations: addr -> bytes (for validation on free).
  std::map<std::uint64_t, std::uint64_t> live_;
  /// Backing store (sparse via pages would be nicer; a flat vector keeps
  /// the model simple and the default capacity is lazily sized).
  mutable std::vector<std::uint8_t> backing_;

  void ensure_backing(std::uint64_t end) const;
};

}  // namespace bfpsim
