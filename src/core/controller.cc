#include "core/controller.h"

#include <numeric>

namespace distcache {

CacheController::CacheController(uint32_t num_spine)
    : num_spine_(num_spine),
      num_alive_(num_spine),
      alive_(num_spine, true),
      spine_of_partition_(num_spine) {
  std::iota(spine_of_partition_.begin(), spine_of_partition_.end(), 0);
  for (uint32_t s = 0; s < num_spine_; ++s) {
    ring_.AddNode(s);
  }
}

void CacheController::OnSpineFailure(uint32_t spine) {
  if (spine >= num_spine_ || !alive_[spine] || num_alive_ <= 1) {
    return;
  }
  alive_[spine] = false;
  --num_alive_;
  ring_.RemoveNode(spine);
  Recompute();
}

void CacheController::OnSpineRecovery(uint32_t spine) {
  if (spine >= num_spine_ || alive_[spine]) {
    return;
  }
  alive_[spine] = true;
  ++num_alive_;
  ring_.AddNode(spine);
  Recompute();
}

void CacheController::Recompute() {
  for (uint32_t p = 0; p < num_spine_; ++p) {
    if (alive_[p]) {
      spine_of_partition_[p] = p;  // healthy partitions stay home
    } else {
      // Consistent hashing spreads failed partitions over the alive switches; the
      // virtual nodes make the spread nearly uniform even for a handful of failures.
      spine_of_partition_[p] = ring_.NodeFor(p).value_or(p);
    }
  }
}

}  // namespace distcache
