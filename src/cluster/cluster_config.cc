#include "cluster/cluster_config.h"

#include <cstdio>
#include <cstdlib>

#include "net/topology.h"

namespace distcache {

std::vector<LayerSpec> ResolvedCacheLayers(const ClusterConfig& config) {
  if (!config.cache_layers.empty()) {
    return config.cache_layers;
  }
  return {{config.num_spine, config.per_switch_objects},
          {config.num_racks, config.per_switch_objects}};
}

void CheckCacheLayersOrDie(const ClusterConfig& config) {
  const std::string error = ValidateCacheLayers(config);
  if (!error.empty()) {
    // An inconsistent hierarchy would index per-rack arrays out of bounds deep
    // in the allocation; fail loudly in every build mode instead.
    std::fprintf(stderr, "invalid cache hierarchy: %s\n", error.c_str());
    std::abort();
  }
}

void CheckCachePolicyOrDie(const ClusterConfig& config) {
  const std::string error =
      ValidateCachePolicy(config.cache_policy, config.cache_hierarchy,
                          config.write_policy, config.mechanism, config.routing);
  if (!error.empty()) {
    std::fprintf(stderr, "invalid cache policy: %s\n", error.c_str());
    std::abort();
  }
}

std::vector<double> LayerCapacities(const ClusterConfig& config) {
  const double rack_aggregate =
      config.server_capacity * static_cast<double>(config.servers_per_rack);
  std::vector<double> capacity(ResolvedCacheLayers(config).size(), rack_aggregate);
  if (config.spine_capacity > 0) {
    capacity.front() = config.spine_capacity;
  }
  if (config.leaf_capacity > 0) {
    capacity.back() = config.leaf_capacity;
  }
  return capacity;
}

std::string ValidateCacheLayers(const ClusterConfig& config) {
  // Validate the *resolved* hierarchy so the legacy two-layer shape is held to
  // the same structural limits (notably the packed-candidate index range) as an
  // explicit layer vector.
  const std::vector<LayerSpec> layers = ResolvedCacheLayers(config);
  if (layers.size() < 2 || layers.size() > kMaxCacheLayers) {
    return "cache hierarchy must have between 2 and " +
           std::to_string(kMaxCacheLayers) + " layers, got " +
           std::to_string(layers.size());
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    if (layers[l].nodes == 0) {
      return "cache layer " + std::to_string(l) + " has zero nodes";
    }
    if (layers[l].nodes > kCandIndexMask) {
      // A larger index would bleed into the packed candidate's layer bits
      // (sim/route_table.h) and route to garbage nodes.
      return "cache layer " + std::to_string(l) + " has " +
             std::to_string(layers[l].nodes) + " nodes; the route-table " +
             "candidate packing supports at most " +
             std::to_string(kCandIndexMask) + " per layer";
    }
  }
  if (config.cache_layers.empty()) {
    return "";
  }
  if (layers.back().nodes != config.num_racks) {
    return "the last (leaf) cache layer is rack-bound: its node count " +
           std::to_string(layers.back().nodes) + " must equal the rack count " +
           std::to_string(config.num_racks);
  }
  if (layers.front().nodes != config.num_spine) {
    return "the first (spine) cache layer's node count " +
           std::to_string(layers.front().nodes) +
           " must equal num_spine (" + std::to_string(config.num_spine) + ")";
  }
  return "";
}

}  // namespace distcache
