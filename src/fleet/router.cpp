#include "fleet/router.hpp"

namespace bfpsim {

int pick_spawn_class(const std::vector<ReplicaInstance>& replicas,
                     std::span<const PassTable> class_passes,
                     const std::vector<int>& class_max) {
  std::vector<int> live(class_passes.size(), 0);
  for (const ReplicaInstance& r : replicas) {
    if (!r.retired) ++live[static_cast<std::size_t>(r.cls)];
  }
  int best = -1;
  std::uint64_t best_est = 0;
  for (std::size_t c = 0; c < class_passes.size(); ++c) {
    if (live[c] >= class_max[c]) continue;
    const std::uint64_t est = class_service_estimate(class_passes[c], 0);
    if (best < 0 || est < best_est) {
      best = static_cast<int>(c);
      best_est = est;
    }
  }
  return best;
}

int pick_retire(const std::vector<ReplicaInstance>& replicas,
                std::span<const PassTable> class_passes, std::uint64_t now) {
  int best = -1;
  std::uint64_t best_est = 0;
  for (const ReplicaInstance& r : replicas) {
    if (r.retired || r.ready_cycle > now || r.busy_until > now) continue;
    const std::uint64_t est = class_service_estimate(
        class_passes[static_cast<std::size_t>(r.cls)], 0);
    // >= : on equal cost prefer the higher instance id (the newest).
    if (best < 0 || est >= best_est) {
      best = r.instance;
      best_est = est;
    }
  }
  return best;
}

}  // namespace bfpsim
