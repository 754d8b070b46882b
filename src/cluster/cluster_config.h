// ClusterConfig — the simulated cluster every engine is built from (topology,
// cache hierarchy, workload, policy and capacities) — and the free functions
// that resolve and validate it. The fluid engine (cluster/cluster_sim.h) and
// the request engines' ClusterModel (sim/cluster_model.h) both read it.
#ifndef DISTCACHE_CLUSTER_CLUSTER_CONFIG_H_
#define DISTCACHE_CLUSTER_CLUSTER_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/cache_policy.h"
#include "core/mechanism.h"
#include "core/pot_router.h"

namespace distcache {

struct ClusterConfig {
  Mechanism mechanism = Mechanism::kDistCache;
  uint32_t num_spine = 32;
  uint32_t num_racks = 32;
  uint32_t servers_per_rack = 32;

  // Cache hierarchy, top first (§3.1 multi-layer extension). Empty = the
  // historical two-layer shape {num_spine, num_racks} with per_switch_objects
  // per node. When set: size in [2, kMaxCacheLayers], the last entry is the
  // rack-bound leaf layer and must have nodes == num_racks, and the first
  // entry's node count must equal num_spine (the top layer keeps the "spine"
  // role: ECMP transit, failure injection). Use ResolvedCacheLayers() to read.
  std::vector<LayerSpec> cache_layers;

  uint64_t num_keys = 100'000'000;
  double zipf_theta = 0.99;  // 0 = uniform
  double write_ratio = 0.0;

  uint32_t per_switch_objects = 100;

  // Candidate-pool override: how many of the hottest ranks are individually
  // tracked (the allocation's candidate set, the dense samplers' head, and the
  // span of a dense route table). 0 = auto, 8× the total cache budget — the
  // historical shape, bit-identical to every pinned golden. bench_memwall
  // raises it toward the key space to reproduce the dense O(keys) memory wall
  // the compact tables / two-level sampler exist to break. Clamped to
  // num_keys.
  uint64_t candidate_pool = 0;

  // Per-node cache semantics (core/cache_policy.h). The default, kDistCache,
  // reproduces the historical engines bit-for-bit. static-topk is distcache
  // read through first-choice routing (EffectiveRouting). The dynamic policies
  // (lru/lfu/fifo/segmented) switch the request engines to the per-node policy
  // runtime and this fluid engine to per-policy closed forms (Che's
  // approximation for LRU/SLRU, λT/(1+λT) for FIFO, top-C for LFU, composed
  // across layers by miss-stream thinning). Non-default policies require
  // mechanism == kDistCache; hierarchy/write knobs require a dynamic policy.
  CachePolicyKind cache_policy = CachePolicyKind::kDistCache;
  HierarchyMode cache_hierarchy = HierarchyMode::kInclusive;
  WritePolicy write_policy = WritePolicy::kWriteThrough;

  RoutingPolicy routing = RoutingPolicy::kPowerOfTwo;
  // false (default): routing sees loads accumulate within the epoch (continuous
  // telemetry). true: routing uses only the previous epoch's snapshot (herding
  // ablation).
  bool stale_telemetry = false;

  double server_capacity = 1.0;
  // 0 = auto: servers_per_rack × server_capacity (the paper's rate-limit
  // discipline). Non-uniform layers (§3.3 remark) set the first / last layer's
  // capacity here; see LayerCapacities.
  double spine_capacity = 0.0;
  double leaf_capacity = 0.0;

  // Two-phase coherence costs (§6.3): per write to a cached object, each copy costs
  // the primary server `coherence_server_cost` extra units (sending/awaiting one
  // invalidation and one update packet — a fraction of a full query's work), and each
  // caching switch `coherence_switch_cost` units (invalidate + update data-plane
  // touches).
  double coherence_server_cost = 0.25;
  double coherence_switch_cost = 2.0;

  // Cap the reported saturation throughput at aggregate server capacity, mirroring
  // the testbed whose clients/servers cannot offer more (paper figures saturate at
  // n × T). Disable to study the uncapped capacity of the cache layers.
  bool cap_at_server_aggregate = true;

  int ticks_per_measurement = 8;
  uint64_t seed = 42;
};

// The routing every engine reads with: static-topk is the distcache contents
// with first-choice routing (the first alive candidate, top layer first), so
// it resolves to kFirstChoice; every other policy routes by config.routing.
inline RoutingPolicy EffectiveRouting(const ClusterConfig& config) {
  return config.cache_policy == CachePolicyKind::kStaticTopK
             ? RoutingPolicy::kFirstChoice
             : config.routing;
}

// The cluster's cache hierarchy: cache_layers when set, else the historical
// two-layer {num_spine, num_racks} shape with per_switch_objects per node.
std::vector<LayerSpec> ResolvedCacheLayers(const ClusterConfig& config);

// Per-layer cache node capacity, top first: every node is rate-limited to one
// rack's aggregate (the paper's testbed discipline), with spine_capacity /
// leaf_capacity overriding the first / last layer when set. The fluid model's
// node capacities and the open-loop engines' automatic service rates.
std::vector<double> LayerCapacities(const ClusterConfig& config);

// Validates cache_layers against the rest of the config; returns an empty string
// when consistent, else a human-readable error (used by the CLI and the engines).
std::string ValidateCacheLayers(const ClusterConfig& config);

// Engine-boundary enforcement: prints the ValidateCacheLayers error and aborts
// on an inconsistent hierarchy (in every build mode — release builds must not
// proceed into out-of-bounds allocation writes).
void CheckCacheLayersOrDie(const ClusterConfig& config);

// Same enforcement for the cache-policy knobs (ValidateCachePolicy over the
// config's policy/hierarchy/write/mechanism combination).
void CheckCachePolicyOrDie(const ClusterConfig& config);

}  // namespace distcache

#endif  // DISTCACHE_CLUSTER_CLUSTER_CONFIG_H_
