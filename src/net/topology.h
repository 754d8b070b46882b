// Cache-node ids of the leaf-spine hierarchy (Fig. 5: spine switches on top, one
// ToR cache switch per storage rack, §3.1's extra layers in between) and their
// flat layer-by-layer encoding. The cluster's shape itself lives in
// cluster/cluster_config.h.
#ifndef DISTCACHE_NET_TOPOLOGY_H_
#define DISTCACHE_NET_TOPOLOGY_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace distcache {

// Hard cap on cache-hierarchy depth (§3.1 multi-layer extension): route-table
// candidates pack the layer into 3 bits (see sim/route_table.h), and nobody
// provisions deeper cache trees anyway.
inline constexpr size_t kMaxCacheLayers = 6;

// Packed-candidate layout (sim/route_table.h): a 29-bit word, the layer in its
// top 3 bits and the node index below — so a layer may have at most 2^26 - 1
// nodes, which the config validation enforces (an overflowing index would
// corrupt the layer field).
inline constexpr uint32_t kCandLayerShift = 26;
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

}  // namespace distcache

#endif  // DISTCACHE_NET_TOPOLOGY_H_
