// Two-layer leaf-spine datacenter topology (Fig. 5): spine switches on top; each
// storage rack has a ToR (leaf) cache switch and `servers_per_rack` storage servers;
// client racks have ToRs that perform query routing. Provides the id scheme and the
// switch traversal paths that query handling (§4.2) and cache coherence (§4.3) need.
#ifndef DISTCACHE_NET_TOPOLOGY_H_
#define DISTCACHE_NET_TOPOLOGY_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace distcache {

// Hard cap on cache-hierarchy depth (§3.1 multi-layer extension): route-table
// candidates pack the layer into 3 bits (see sim/route_table.h), and nobody
// provisions deeper cache trees anyway.
inline constexpr size_t kMaxCacheLayers = 6;

// Packed-candidate layout (sim/route_table.h): layer in the top 3 bits, node
// index below — so a layer may have at most 2^29 - 1 nodes, which the config
// validation enforces (an overflowing index would corrupt the layer field).
inline constexpr uint32_t kCandLayerShift = 29;
inline constexpr uint32_t kCandIndexMask = (1u << kCandLayerShift) - 1;

// Cache-node id: layer 0 = the top ("spine") layer (group A in the analysis),
// the last layer = the storage-rack leaves (group B); any layers in between are
// the §3.1 multi-layer extension. `index` is the position within the layer.
struct CacheNodeId {
  uint32_t layer = 0;
  uint32_t index = 0;

  bool operator==(const CacheNodeId&) const = default;
};

// Flat indexing of a layered cache hierarchy: layer l's nodes occupy
// [LayerBegin(l), LayerEnd(l)) of a dense [0, total()) range, top layer first.
// This is the single source of the layer→flat encoding shared by the load
// tracker, the shard runtime and its telemetry payloads — a second hand-rolled
// copy could silently desynchronize them. Offsets live in fixed inline storage:
// Flat() runs on per-request hot paths and must not chase a heap pointer.
class LayerOffsets {
 public:
  LayerOffsets() { offset_.fill(0); }
  explicit LayerOffsets(const std::vector<uint32_t>& layer_sizes)
      : num_layers_(layer_sizes.size()) {
    if (layer_sizes.size() > kMaxCacheLayers) {
      // Hard check in every build mode: the fill loop below would write past
      // the fixed-size offset array.
      std::fprintf(stderr, "LayerOffsets: %zu layers exceeds the depth cap %zu\n",
                   layer_sizes.size(), kMaxCacheLayers);
      std::abort();
    }
    uint32_t total = 0;
    offset_.fill(0);
    for (size_t l = 0; l < layer_sizes.size(); ++l) {
      offset_[l] = total;
      total += layer_sizes[l];
    }
    // Padded through the max depth so NodeOfFlat's scan needs no size check.
    for (size_t l = layer_sizes.size(); l <= kMaxCacheLayers; ++l) {
      offset_[l] = total;
    }
  }

  uint32_t Flat(CacheNodeId node) const { return offset_[node.layer] + node.index; }
  CacheNodeId NodeOfFlat(uint32_t flat) const {
    uint32_t layer = 0;
    while (flat >= offset_[layer + 1]) {
      ++layer;
    }
    return {layer, flat - offset_[layer]};
  }
  uint32_t LayerBegin(size_t layer) const { return offset_[layer]; }
  uint32_t LayerEnd(size_t layer) const { return offset_[layer + 1]; }
  uint32_t total() const { return offset_[num_layers_]; }
  size_t num_layers() const { return num_layers_; }

 private:
  std::array<uint32_t, kMaxCacheLayers + 1> offset_;
  size_t num_layers_ = 0;
};

class LeafSpineTopology {
 public:
  struct Config {
    uint32_t num_spine = 32;          // paper default: 32 spine switches
    uint32_t num_storage_racks = 32;  // paper default: 32 storage racks
    uint32_t servers_per_rack = 32;   // paper default: 32 servers per rack
    uint32_t num_client_racks = 4;
  };

  explicit LeafSpineTopology(const Config& config) : config_(config) {}

  uint32_t num_spine() const { return config_.num_spine; }
  uint32_t num_storage_racks() const { return config_.num_storage_racks; }
  uint32_t servers_per_rack() const { return config_.servers_per_rack; }
  uint32_t num_client_racks() const { return config_.num_client_racks; }
  uint32_t num_servers() const { return config_.num_storage_racks * config_.servers_per_rack; }
  // Total cache nodes across both layers (2m in the analysis when layers are equal).
  uint32_t num_cache_nodes() const { return config_.num_spine + config_.num_storage_racks; }

  uint32_t RackOfServer(uint32_t server_id) const { return server_id / config_.servers_per_rack; }

  // The switches a read query traverses from a client rack to cache node `target` —
  // hitting a spine cache traverses only that spine; hitting a leaf cache traverses an
  // (arbitrary, load-balanced) spine and the leaf (§3.4: such pass-through spines are
  // interchangeable, so we expose the leaf as the single cache touch point).
  std::vector<CacheNodeId> QueryPath(CacheNodeId target) const {
    return {target};
  }

  // The cache switches an invalidation/update packet must traverse for an object whose
  // copies live at the given nodes (§4.3: one packet walks all caching switches, e.g.
  // server → leaf → spine → leaf → server).
  std::vector<CacheNodeId> CoherencePath(const std::vector<CacheNodeId>& copies) const {
    return copies;
  }

  std::string Describe() const;

 private:
  Config config_;
};

}  // namespace distcache

#endif  // DISTCACHE_NET_TOPOLOGY_H_
