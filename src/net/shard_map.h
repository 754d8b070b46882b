// Static partition of the simulated topology across worker shards.
//
// The sharded runtime assigns every cache switch (of every layer of the
// hierarchy) and every storage server to exactly one shard, which owns that
// node's authoritative load counter. Requests generated by other shards that land
// on the node travel as batched load-delta messages over the owner's inbound
// rings (see sim/multiproc_backend.h). Ownership is round-robin by flat node
// index, which balances all layers across shards for any shard count.
#ifndef DISTCACHE_NET_SHARD_MAP_H_
#define DISTCACHE_NET_SHARD_MAP_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/allocation.h"
#include "net/topology.h"

namespace distcache {

class ShardMap {
 public:
  // `layer_sizes` is the cache hierarchy, top first ({num_spine, num_leaf} in the
  // historical two-layer deployment).
  ShardMap(std::vector<uint32_t> layer_sizes, uint32_t num_servers, uint32_t shards)
      : layer_sizes_(std::move(layer_sizes)),
        offset_(layer_sizes_),
        num_servers_(num_servers),
        shards_(shards == 0 ? 1 : shards) {}

  uint32_t shards() const { return shards_; }

  // Canonical top-layer-first flat index for cache nodes — the encoding shared
  // by the telemetry payloads, the delta scratch arrays, and ownership. The encoding itself is single-sourced in
  // LayerOffsets (net/topology.h), which the LoadTracker shares.
  uint32_t FlatIndex(CacheNodeId node) const { return offset_.Flat(node); }
  CacheNodeId NodeOfFlat(uint32_t flat) const { return offset_.NodeOfFlat(flat); }
  uint32_t num_cache_nodes() const { return offset_.total(); }

  // Owner of a cache switch by FlatIndex. Layers are interleaved so that a
  // shard owns roughly num_cache_nodes() / shards switches.
  uint32_t OwnerOfFlat(uint32_t flat) const { return flat % shards_; }

  uint32_t OwnerOfServer(uint32_t server_id) const { return server_id % shards_; }

  size_t num_layers() const { return layer_sizes_.size(); }
  uint32_t layer_size(size_t layer) const { return layer_sizes_[layer]; }
  uint32_t num_servers() const { return num_servers_; }

 private:
  std::vector<uint32_t> layer_sizes_;
  LayerOffsets offset_;  // the shared layer→flat encoding (net/topology.h)
  uint32_t num_servers_;
  uint32_t shards_;
};

}  // namespace distcache

#endif  // DISTCACHE_NET_SHARD_MAP_H_
