#include "cluster/topology.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace bfpsim {

void LinkConfig::validate() const {
  BFP_REQUIRE(bytes_per_cycle > 0,
              "LinkConfig: bytes_per_cycle must be positive");
  BFP_REQUIRE(burst_bytes > 0, "LinkConfig: burst_bytes must be positive");
  BFP_REQUIRE(burst_overhead_cycles >= 0,
              "LinkConfig: burst overhead must be non-negative");
}

std::uint64_t link_transfer_cycles(const LinkConfig& link,
                                   std::uint64_t bytes) {
  if (bytes == 0) return 0;
  const auto bpc = static_cast<std::uint64_t>(link.bytes_per_cycle);
  const std::uint64_t data = (bytes + bpc - 1) / bpc;
  const std::uint64_t bursts =
      (bytes + static_cast<std::uint64_t>(link.burst_bytes) - 1) /
      static_cast<std::uint64_t>(link.burst_bytes);
  return data +
         bursts * static_cast<std::uint64_t>(link.burst_overhead_cycles) +
         link.latency_cycles;
}

ClusterTopology ClusterTopology::ring(int cards, const LinkConfig& link,
                                      const SystemConfig& card) {
  return ClusterTopology(cards, TopologyKind::kRing, link, card);
}

ClusterTopology ClusterTopology::fully_connected(int cards,
                                                 const LinkConfig& link,
                                                 const SystemConfig& card) {
  return ClusterTopology(cards, TopologyKind::kFullyConnected, link, card);
}

ClusterTopology::ClusterTopology(int cards, TopologyKind kind,
                                 const LinkConfig& link,
                                 const SystemConfig& card)
    : cards_(cards), kind_(kind), card_(card) {
  BFP_REQUIRE(cards >= 1 && cards <= 64,
              "ClusterTopology: cards must be in [1,64]");
  link.validate();
  card.validate();
  const auto n = static_cast<std::size_t>(cards);
  links_.assign(n * n, link);
  connected_.assign(n * n, 0);
  for (int a = 0; a < cards; ++a) {
    for (int b = 0; b < cards; ++b) {
      if (a == b) continue;
      const bool neighbours =
          (b == (a + 1) % cards) || (a == (b + 1) % cards);
      const bool on = kind == TopologyKind::kFullyConnected || neighbours;
      connected_[static_cast<std::size_t>(a * cards + b)] = on ? 1 : 0;
    }
  }
}

bool ClusterTopology::connected(int from, int to) const {
  BFP_REQUIRE(from >= 0 && from < cards_ && to >= 0 && to < cards_,
              "ClusterTopology: card index out of range");
  return connected_[static_cast<std::size_t>(from * cards_ + to)] != 0;
}

const LinkConfig& ClusterTopology::link(int from, int to) const {
  BFP_REQUIRE(connected(from, to), "ClusterTopology: cards not connected");
  return links_[static_cast<std::size_t>(from * cards_ + to)];
}

void ClusterTopology::validate() const {
  BFP_REQUIRE(cards_ >= 1 && cards_ <= 64,
              "ClusterTopology: cards must be in [1,64]");
  card_.validate();
  for (int a = 0; a < cards_; ++a) {
    for (int b = 0; b < cards_; ++b) {
      if (a == b) {
        BFP_REQUIRE(!connected_[static_cast<std::size_t>(a * cards_ + b)],
                    "ClusterTopology: self-links are not allowed");
        continue;
      }
      if (connected_[static_cast<std::size_t>(a * cards_ + b)]) {
        links_[static_cast<std::size_t>(a * cards_ + b)].validate();
      }
    }
  }
  if (cards_ > 1) {
    // The collective schedule walks the card-order ring; every hop of it
    // must exist in the graph.
    for (int c = 0; c < cards_; ++c) {
      BFP_REQUIRE(connected(c, (c + 1) % cards_),
                  "ClusterTopology: card-order ring is not fully linked");
    }
  }
}

std::uint64_t ClusterTopology::p2p_cycles(int from, int to,
                                          std::uint64_t bytes) const {
  BFP_REQUIRE(from >= 0 && from < cards_ && to >= 0 && to < cards_,
              "ClusterTopology: card index out of range");
  if (from == to || bytes == 0) return 0;
  if (connected(from, to)) return link_transfer_cycles(link(from, to), bytes);
  // Ring store-and-forward along the shorter arc.
  const int fwd = (to - from + cards_) % cards_;
  const int bwd = (from - to + cards_) % cards_;
  const int step = fwd <= bwd ? 1 : cards_ - 1;
  const int hops = std::min(fwd, bwd);
  std::uint64_t total = 0;
  int at = from;
  for (int h = 0; h < hops; ++h) {
    const int next = (at + step) % cards_;
    total += link_transfer_cycles(link(at, next), bytes);
    at = next;
  }
  BFPSIM_ENSURE(at == to,
                "p2p store-and-forward walk must terminate at the "
                "destination card");
  return total;
}

std::uint64_t ClusterTopology::ring_step_cycles(std::uint64_t bytes) const {
  std::uint64_t worst = 0;
  for (int c = 0; c < cards_; ++c) {
    worst = std::max(
        worst, link_transfer_cycles(link(c, (c + 1) % cards_), bytes));
  }
  return worst;
}

std::uint64_t ClusterTopology::all_gather_cycles(
    std::uint64_t total_bytes) const {
  if (cards_ <= 1 || total_bytes == 0) return 0;
  const auto n = static_cast<std::uint64_t>(cards_);
  const std::uint64_t shard = (total_bytes + n - 1) / n;
  return static_cast<std::uint64_t>(cards_ - 1) * ring_step_cycles(shard);
}

}  // namespace bfpsim
