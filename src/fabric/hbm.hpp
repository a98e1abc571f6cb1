// HBM / AXI memory-system model for the Alveo U280 deployment.
//
// Each processing unit connects to HBM through two 256-bit AXI channels
// (Section III-B, footnote 1). The model is a bandwidth + burst-overhead
// abstraction: a transfer of B bytes issued as N bursts costs
//     ceil(B / bytes_per_cycle_total) + N * burst_overhead_cycles
// fabric cycles on the unit's channel pair. This is the component that
// turns the theoretical Eqn 9/10 curves into the lower "measured" curves of
// Fig. 7 — sequential bfp streams amortize burst overhead over long bursts,
// while the fp32 modes' scattered accesses cannot (the paper's stated
// reason its fp32 throughput stays far from theoretical).
#pragma once

#include <cstdint>

namespace bfpsim {

class FaultStream;

/// HBM2 capacity of one Alveo U280 card: the default device arena.
inline constexpr std::uint64_t kHbmCapacityBytes = 8ull << 30;
/// Device allocation granularity: one AXI beat across a unit's channel
/// pair.
inline constexpr std::uint64_t kHbmAlignment = 64;

struct HbmConfig {
  int axi_channels_per_unit = 2;   ///< 256-bit channels per PU
  int bytes_per_cycle_per_channel = 32;  ///< 256 bit @ fabric clock
  int burst_overhead_cycles = 26;  ///< issue+latency cost per burst
  /// Burst sizes achievable per access pattern (compiler-controlled; the
  /// paper notes fp32 bursts are currently short).
  int bfp_burst_bytes = 4096;
  int fp32_burst_bytes = 768;
  /// Fraction of I/O cycles hidden under compute by double buffering.
  double bfp_overlap = 0.90;
  double fp32_overlap = 0.55;

  int bytes_per_cycle_total() const {
    return axi_channels_per_unit * bytes_per_cycle_per_channel;
  }

  void validate() const;
};

/// Cycle cost of moving `bytes` with bursts of at most `burst_bytes`.
std::uint64_t transfer_cycles(const HbmConfig& cfg, std::uint64_t bytes,
                              int burst_bytes);

/// Outcome of a fault-aware transfer (reliability/fault_model.hpp).
struct HbmTransfer {
  std::uint64_t cycles = 0;     ///< total, including retransmissions
  std::uint64_t bursts = 0;     ///< bursts issued for the payload
  std::uint64_t corrupted = 0;  ///< bursts the AXI CRC rejected
};

/// Fault-aware variant of transfer_cycles: `faults` is sampled once per
/// burst (kHbmBurst site). A corrupted burst is caught by the link CRC and
/// retransmitted at full-burst cost — data is never silently corrupted,
/// the fault surfaces purely as latency. A retransmission can itself be
/// corrupted (sampled again); retries per burst are capped at 8 so a
/// p = 1 stream cannot hang the model. With faults == nullptr the result
/// equals transfer_cycles exactly.
HbmTransfer transfer_cycles_faulty(const HbmConfig& cfg, std::uint64_t bytes,
                                   int burst_bytes, FaultStream* faults);

/// Combine compute and I/O cycles given an overlap fraction: the hidden
/// part of I/O runs under compute, the rest extends the pass.
std::uint64_t combine_overlap(std::uint64_t compute_cycles,
                              std::uint64_t io_cycles, double overlap);

}  // namespace bfpsim
