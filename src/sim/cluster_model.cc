#include "sim/cluster_model.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "sketch/heavy_hitter.h"

namespace distcache {

ClusterModel::ClusterModel(const ClusterConfig& config, bool build_popularity)
    : cfg(config),
      layers(ResolvedCacheLayers(config)),
      placement(config.num_racks, config.servers_per_rack,
                HashCombine(config.seed, 0x91ace3e22ULL)),
      dist(MakeDistribution(config.num_keys, config.zipf_theta)) {
  CheckCacheLayersOrDie(cfg);
  CheckCachePolicyOrDie(cfg);
  AllocationConfig alloc;
  alloc.mechanism = cfg.mechanism;
  alloc.layers = layers;
  alloc.candidate_pool = std::min(cfg.candidate_pool, cfg.num_keys);
  alloc.hash_seed = HashCombine(cfg.seed, 0xd15ca4eULL);
  allocation = std::make_unique<CacheAllocation>(alloc, placement);
  controller = std::make_unique<CacheController>(allocation.get(), cfg.num_spine);
  pool = allocation->candidate_pool();
  if (build_popularity) {
    popularity = BuildPopularityVector(*dist, pool);
    head_with_tail = popularity.head;
    head_with_tail.push_back(popularity.tail_mass);
  }
}

void ClusterModel::ReallocateCache(const std::vector<uint64_t>& hottest_first) {
  controller->ReallocateCache(hottest_first, placement);
}

void ClusterModel::ReallocateFromReports(
    const std::vector<uint8_t>& spine_alive,
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports) {
  SyncControllerRemap(spine_alive);
  std::vector<uint64_t> hottest;
  for (const auto& [key, count] : MergeHeavyHitterReports(reports)) {
    hottest.push_back(key);
  }
  ReallocateCache(hottest);
}

std::vector<double> ClusterModel::HeadWithTailFor(double theta) const {
  if (theta == cfg.zipf_theta) {
    return head_with_tail;
  }
  const auto phase_dist = MakeDistribution(cfg.num_keys, theta);
  PopularityVector pv = BuildPopularityVector(*phase_dist, pool);
  std::vector<double> pmf = std::move(pv.head);
  pmf.push_back(pv.tail_mass);
  return pmf;
}

void ClusterModel::SyncControllerRemap(const std::vector<uint8_t>& spine_alive) {
  for (uint32_t s = 0; s < cfg.num_spine; ++s) {
    if (!spine_alive[s] && controller->IsAlive(s)) {
      controller->OnSpineFailure(s);
    } else if (spine_alive[s] && !controller->IsAlive(s)) {
      controller->OnSpineRecovery(s);
    }
  }
}

}  // namespace distcache
