// Heterogeneous fleet scaling choices: which replica class to spawn and
// which replica to retire, over replicas of differing card counts and
// partition strategies. (Placement, the cheapest free replica, is the
// serving loop's own: pick_replica in serving/event_loop.hpp.)
//
// Pure functions over the loop's replica table, with every tie broken
// explicitly, so scaling is a deterministic function of its inputs. Both
// walk only the table's live index (ReplicaTable::active), so a tick costs
// O(live replicas) however many instances the run has created:
//
//  * spawn class — the cheapest class (per-request service estimate at
//    request 0's pass, a stable proxy) that still has headroom under its
//    max_replicas cap, tie-broken by lowest class index.
//  * retirement — the most expensive idle replica (it frees the most
//    provisioned cycles), tie-broken by highest instance id (retire the
//    newest first, keeping the long-lived low ids stable in traces).
#pragma once

#include <span>
#include <vector>

#include "serving/event_loop.hpp"

namespace bfpsim {

/// Class to spawn the next replica from: cheapest class with live-count
/// (non-retired instances, ready or cold) below `class_max[c]`; -1 when
/// every class is at its cap.
int pick_spawn_class(const ReplicaTable& table,
                     std::span<const PassTable> class_passes,
                     const std::vector<int>& class_max);

/// Idle ready replica to retire (most expensive class, then highest
/// instance id); -1 if none is idle.
int pick_retire(const ReplicaTable& table,
                std::span<const PassTable> class_passes, std::uint64_t now);

}  // namespace bfpsim
