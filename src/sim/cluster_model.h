// The cluster every simulation engine is built on: resolved cache layers,
// storage placement, cache allocation and the failure/re-allocation controller,
// all derived from one (ClusterConfig, seed). The request engines read it
// directly and the fluid ClusterSim holds one, so a given config produces the
// same placement, allocation and head-key popularity in every backend —
// cross-backend stat comparisons (sequential vs sharded vs fluid) compare
// engines, never workloads.
#ifndef DISTCACHE_SIM_CLUSTER_MODEL_H_
#define DISTCACHE_SIM_CLUSTER_MODEL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "common/workload.h"
#include "common/zipf.h"
#include "core/allocation.h"
#include "core/controller.h"
#include "core/load_tracker.h"
#include "kv/placement.h"

namespace distcache {

// Client-view tracker dimensions for a cluster, shared by the request-level
// backends: one slot per node of every cache layer, top first.
inline LoadTracker::Config MakeTrackerConfig(const ClusterConfig& cfg) {
  LoadTracker::Config tc;
  tc.layer_sizes.clear();
  for (const LayerSpec& layer : ResolvedCacheLayers(cfg)) {
    tc.layer_sizes.push_back(layer.nodes);
  }
  return tc;
}

struct ClusterModel {
  // `build_popularity` materializes the O(pool) head pmf (`head_with_tail`)
  // the dense samplers draw from; the two-level sampling mode passes false and
  // derives its per-bucket masses in closed form instead
  // (common/alias_sampler.h), keeping construction O(cached keys). The fluid
  // engine passes false too and keeps its own PopularityFor vector.
  explicit ClusterModel(const ClusterConfig& config, bool build_popularity = true);

  // Syncs the controller's alive set to `spine_alive`: failed spines hand their
  // partitions to alive ones via consistent hashing, recovered spines take
  // theirs home. Mutates `allocation`, so CopiesOf() reflects the remap
  // afterwards.
  void SyncControllerRemap(const std::vector<uint8_t>& spine_alive);

  // Online cache re-allocation (§6.4): replaces the cached set with the
  // hottest-first key list the controller aggregated from observed heavy-hitter
  // counts, preserving any failure remap in effect. Mutates `allocation`; callers
  // must rebuild route tables afterwards (see sim/route_table.h).
  void ReallocateCache(const std::vector<uint64_t>& hottest_first);

  // The controller's re-allocation step from heavy-hitter reports (one list
  // per reporting engine stream, each hottest-first): re-syncs the remap to
  // `spine_alive` (the controller acts on its failure knowledge as of the
  // step), merges the reports (MergeHeavyHitterReports) and refills the cached
  // set hottest-first. Order-independent in `reports`, hash-based and RNG-free,
  // so every process given the same reports reaches the same model state —
  // which lets every forked shard of the shard runtime refill on its own.
  void ReallocateFromReports(
      const std::vector<uint8_t>& spine_alive,
      const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports);

  // The pool head ranks' pmf and the aggregate tail mass under skew `theta`.
  PopularityVector PopularityFor(double theta) const;

  // head-with-tail pmf for an arbitrary skew — what the request-level samplers draw
  // from after a phase boundary changes theta. The bucket layout (pool head ranks +
  // one aggregated tail bucket) is identical to `head_with_tail`.
  std::vector<double> HeadWithTailFor(double theta) const;

  ClusterConfig cfg;
  std::vector<LayerSpec> layers;  // resolved cache hierarchy, top first
  Placement placement;
  std::unique_ptr<CacheAllocation> allocation;
  // Off-path cache controller driving failure remaps (§4.4); shares `allocation`.
  std::unique_ptr<CacheController> controller;

  // Keys [0, pool) are tracked individually ("head"); the rest is the uniform tail.
  uint64_t pool = 0;
  // Differential-test / memory-baseline mode: BuildRouteTable materializes the
  // full-pool dense layout instead of the compact hot prefix (bit-identical
  // routing either way; see sim/route_table.h). Off everywhere by default.
  bool dense_routes = false;
  // PopularityFor(cfg.zipf_theta)'s head with the aggregate tail mass appended
  // as one extra bucket — the pmf both request-level samplers draw from.
  std::vector<double> head_with_tail;

  uint32_t num_servers() const { return cfg.num_racks * cfg.servers_per_rack; }
  size_t num_layers() const { return layers.size(); }

  // Sizes a per-layer stats structure (one vector per cache layer, top first).
  std::vector<std::vector<double>> ZeroCacheLoads() const {
    std::vector<std::vector<double>> loads(layers.size());
    for (size_t l = 0; l < layers.size(); ++l) {
      loads[l].assign(layers[l].nodes, 0.0);
    }
    return loads;
  }
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_CLUSTER_MODEL_H_
