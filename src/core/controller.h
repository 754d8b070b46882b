// Cache controller (§4.1, §4.4).
//
// The controller computes cache partitions and pushes them to switch agents. It is off
// the query path entirely; it acts only on reconfiguration — adding racks/switches and
// handling failures. On a spine-switch failure it remaps the failed switch's h0
// partition onto the remaining alive switches with consistent hashing + virtual nodes
// so the displaced hot objects stay cached and the extra load spreads out. The
// partition→switch map is the only failure state: the allocation names layer-0
// copies by partition, and Place() resolves them to the switch hosting each now.
#ifndef DISTCACHE_CORE_CONTROLLER_H_
#define DISTCACHE_CORE_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "core/allocation.h"
#include "core/consistent_hash.h"

namespace distcache {

class CacheController {
 public:
  explicit CacheController(uint32_t num_spine);

  // Marks `spine` failed and remaps its partition(s). No-op if already failed or if
  // it is the last alive spine (nothing to remap onto).
  void OnSpineFailure(uint32_t spine);

  // Brings `spine` back; its own partition returns home and it becomes eligible to
  // host other failed switches' partitions again.
  void OnSpineRecovery(uint32_t spine);

  bool IsAlive(uint32_t spine) const { return alive_[spine]; }
  uint32_t num_alive() const { return num_alive_; }
  const std::vector<uint32_t>& spine_of_partition() const { return spine_of_partition_; }
  // `copies` (CacheAllocation::CopiesOf) with the layer-0 copy moved from its
  // partition to the switch hosting that partition now.
  CacheCopies Place(CacheCopies copies) const {
    if (copies.num > 0 && copies.nodes[0].layer == 0) {
      copies.nodes[0].index = spine_of_partition_[copies.nodes[0].index];
    }
    return copies;
  }

 private:
  void Recompute();

  uint32_t num_spine_;
  uint32_t num_alive_;
  std::vector<bool> alive_;
  std::vector<uint32_t> spine_of_partition_;
  ConsistentHashRing ring_;
};

}  // namespace distcache

#endif  // DISTCACHE_CORE_CONTROLLER_H_
