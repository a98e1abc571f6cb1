// Multi-card cluster topology: N simulated Alveo U280 cards, each wrapping
// a fabric-level SystemConfig, connected by explicit inter-card links.
//
// The single-card model stops at HBM (fabric/hbm.hpp); scaling past one
// card introduces a second, slower memory boundary — the card-to-card
// interconnect. A link is modelled with the same shape as HbmConfig's
// transfer_cycles: a bandwidth term, a per-burst overhead term, plus a
// fixed per-transfer latency (serial links pay an issue/flight cost HBM
// bursts do not). Two presets cover the deployments worth studying:
//
//  * ring            — card c talks to (c±1) mod N only; collectives run
//    as ring algorithms (the bandwidth-optimal choice on this wiring);
//  * fully connected — every pair has a direct link; point-to-point sends
//    are single-hop, collectives still run the ring schedule over the
//    card-order cycle (deterministic and no worse than the ring).
//
// Everything here is analytic and deterministic: cycle costs are pure
// functions of the configuration, never of host timing.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/system.hpp"

namespace bfpsim {

/// One directed inter-card link (pairs are symmetric in the presets).
struct LinkConfig {
  /// Payload bandwidth in bytes per fabric cycle. 16 B/cycle at 300 MHz is
  /// ~4.8 GB/s — a PCIe-class serial link, an order below the HBM pair.
  int bytes_per_cycle = 16;
  /// Fixed issue + flight latency per transfer.
  std::uint64_t latency_cycles = 500;
  /// Largest burst the DMA engine issues on the link.
  int burst_bytes = 4096;
  /// Per-burst overhead (packetization/credit handling), mirroring
  /// HbmConfig::burst_overhead_cycles.
  int burst_overhead_cycles = 32;

  void validate() const;
};

/// Cycle cost of moving `bytes` across one link:
///   ceil(bytes / bytes_per_cycle) + n_bursts * burst_overhead_cycles
///     + latency_cycles
/// Zero bytes cost nothing (no transfer is issued).
std::uint64_t link_transfer_cycles(const LinkConfig& link,
                                   std::uint64_t bytes);

enum class TopologyKind { kRing, kFullyConnected };

/// The card graph: per-card system configuration plus the link matrix.
class ClusterTopology {
 public:
  /// Ring of `cards` identical cards: card c connects to (c±1) mod cards.
  /// A 1-card ring has no links; a 2-card ring is a single bidirectional
  /// pair.
  static ClusterTopology ring(int cards, const LinkConfig& link = {},
                              const SystemConfig& card = {});

  /// Every pair of cards directly connected.
  static ClusterTopology fully_connected(int cards,
                                         const LinkConfig& link = {},
                                         const SystemConfig& card = {});

  int num_cards() const { return cards_; }
  TopologyKind kind() const { return kind_; }
  const SystemConfig& card_config() const { return card_; }

  bool connected(int from, int to) const;
  /// The link from -> to (requires connected(from, to)).
  const LinkConfig& link(int from, int to) const;

  void validate() const;

  /// ---- cost model ----

  /// Point-to-point send cost. Direct neighbours pay one link transfer;
  /// on a ring, non-neighbours store-and-forward along the shorter arc
  /// (each hop pays the full link cost — no cut-through).
  std::uint64_t p2p_cycles(int from, int to, std::uint64_t bytes) const;

  /// Ring all-gather of `total_bytes` (each card contributes an equal
  /// shard): N-1 steps, each moving one shard of ceil(total/N) bytes over
  /// the slowest ring link. 0 for a single card.
  std::uint64_t all_gather_cycles(std::uint64_t total_bytes) const;

 private:
  ClusterTopology(int cards, TopologyKind kind, const LinkConfig& link,
                  const SystemConfig& card);

  /// Worst per-step cost of moving `bytes` one hop around the card-order
  /// ring 0 -> 1 -> ... -> N-1 -> 0 (collective steps synchronize, so the
  /// slowest link paces every step).
  std::uint64_t ring_step_cycles(std::uint64_t bytes) const;

  int cards_ = 1;
  TopologyKind kind_ = TopologyKind::kRing;
  SystemConfig card_;
  std::vector<LinkConfig> links_;  ///< dense cards x cards, row = from
  std::vector<char> connected_;    ///< dense cards x cards adjacency
};

}  // namespace bfpsim
