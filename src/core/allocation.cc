#include "core/allocation.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace distcache {

CacheAllocation::CacheAllocation(const AllocationConfig& config, const Placement& placement)
    : config_(config) {
  // Hard checks in every build mode: a malformed hierarchy would index the
  // per-rack and per-partition arrays out of bounds below.
  if (config_.layers.size() < 2 || config_.layers.size() > kMaxCacheLayers ||
      placement.num_racks() != config_.layers.back().nodes) {
    std::fprintf(stderr,
                 "CacheAllocation: invalid hierarchy (%zu layers, leaf %u nodes, "
                 "%u racks)\n",
                 config_.layers.size(),
                 config_.layers.empty() ? 0 : config_.layers.back().nodes,
                 placement.num_racks());
    std::abort();
  }
  // One independent hash per upper layer. Layer 0 keeps the historical h0 seed
  // derivation exactly; deeper layers perturb the tweak so every layer's hash is
  // an independent tabulation function.
  hash_.reserve(config_.layers.size() - 1);
  for (size_t l = 0; l + 1 < config_.layers.size(); ++l) {
    hash_.emplace_back(HashCombine(config_.hash_seed, 0xa110cULL + l));
  }
  if (config_.candidate_pool != 0) {
    pool_ = config_.candidate_pool;
  } else {
    uint64_t budget = 0;
    for (const LayerSpec& layer : config_.layers) {
      budget += uint64_t{layer.nodes} * layer.cache_objects;
    }
    pool_ = 8 * budget;
  }
  Compute(placement);
}

void CacheAllocation::Compute(const Placement& placement) {
  const size_t num_layers = config_.layers.size();
  const size_t leaf = num_layers - 1;
  // How many ranks the current hot ordering covers: the whole pool under the
  // identity mapping, the list length after Refill (a short observed list leaves
  // the remaining budget demand unfilled).
  const uint64_t ranked =
      explicit_hot_list_ ? std::min<uint64_t>(key_of_rank_.size(), pool_) : pool_;
  node_of_.assign(num_layers, {});
  layer_contents_.assign(num_layers, {});
  layer_contents_[leaf].assign(config_.layers[leaf].nodes, {});
  partition_contents_.assign(leaf, {});
  node_of_partition_.assign(leaf, {});
  for (size_t l = 0; l < leaf; ++l) {
    partition_contents_[l].assign(config_.layers[l].nodes, {});
    node_of_partition_[l].resize(config_.layers[l].nodes);
    std::iota(node_of_partition_[l].begin(), node_of_partition_[l].end(), 0);
  }

  const bool leaf_caching = config_.mechanism != Mechanism::kNoCache;
  const bool upper_partitioned = config_.mechanism == Mechanism::kDistCache;
  const bool top_replicated = config_.mechanism == Mechanism::kCacheReplication;

  // Budgets still open: one per leaf rack, one per upper-layer partition, one
  // for the replicated top set (zero-capacity budgets are never open). Once
  // the last one fills, no later rank can be cached, so the walk stops there.
  uint64_t open = 0;
  if (leaf_caching && config_.layers[leaf].cache_objects > 0) {
    open += config_.layers[leaf].nodes;
  }
  for (size_t l = 0; upper_partitioned && l < leaf; ++l) {
    open += config_.layers[l].cache_objects > 0 ? config_.layers[l].nodes : 0;
  }
  if (top_replicated && config_.layers[0].cache_objects > 0) {
    open += 1;
  }
  // Caches `key` in `contents` (one budget of `capacity`) if it has room.
  auto admit = [&open](std::vector<uint64_t>& contents, uint32_t capacity,
                       uint64_t key) {
    if (contents.size() >= capacity) {
      return false;
    }
    contents.push_back(key);
    open -= contents.size() == capacity ? 1 : 0;
    return true;
  };

  // Ranks are visited hottest-first, so a single ascending pass fills every
  // per-node budget with the hottest members of its partition. All hashes (h_l,
  // placement) are evaluated on the *key id* holding the rank, so an explicit hot
  // list lands each key at its true rack/partitions.
  auto& leaf_contents = layer_contents_[leaf];
  num_cached_ = 0;
  uint64_t cached_end = 0;
  for (uint64_t rank = 0; rank < ranked && open > 0; ++rank) {
    const uint64_t key = KeyOfRank(rank);
    bool any = false;
    for (size_t l = 0; l < num_layers; ++l) {
      node_of_[l].push_back(kNotCached);
    }
    const uint32_t rack = placement.RackOf(key);
    if (leaf_caching &&
        admit(leaf_contents[rack], config_.layers[leaf].cache_objects, key)) {
      node_of_[leaf][rank] = rack;
      any = true;
    }
    if (upper_partitioned) {
      for (size_t l = 0; l < leaf; ++l) {
        const uint32_t partition = PartitionOf(l, key);
        if (admit(partition_contents_[l][partition],
                  config_.layers[l].cache_objects, key)) {
          node_of_[l][rank] = partition;
          any = true;
        }
      }
    } else if (top_replicated && rank < config_.layers[0].cache_objects) {
      // The globally hottest objects; identical content in every layer-0 node.
      admit(partition_contents_[0][0], config_.layers[0].cache_objects, key);
      node_of_[0][rank] = 0;
      any = true;
    }
    num_cached_ += any ? 1 : 0;
    cached_end = any ? rank + 1 : cached_end;
  }
  // Keep exactly the cached span: ranks past it resolve as uncached.
  for (auto& row : node_of_) {
    row.resize(cached_end);
    row.shrink_to_fit();
  }

  for (size_t l = 0; l < leaf; ++l) {
    DeriveLayerContents(l);
  }
}

// Rebuilds one upper layer's per-node contents from its partition contents
// through the layer's partition→node map.
void CacheAllocation::DeriveLayerContents(size_t layer) {
  layer_contents_[layer].assign(config_.layers[layer].nodes, {});
  if (config_.mechanism == Mechanism::kCacheReplication) {
    if (layer == 0) {
      for (auto& contents : layer_contents_[0]) {
        contents = partition_contents_[0][0];
      }
    }
    return;
  }
  for (uint32_t p = 0; p < config_.layers[layer].nodes; ++p) {
    auto& dst = layer_contents_[layer][node_of_partition_[layer][p]];
    dst.insert(dst.end(), partition_contents_[layer][p].begin(),
               partition_contents_[layer][p].end());
  }
}

CacheCopies CacheAllocation::CopiesOfRank(uint64_t rank) const {
  CacheCopies copies;
  const size_t num_layers = config_.layers.size();
  copies.leaf_layer = static_cast<uint8_t>(num_layers - 1);
  if (rank >= CachedRankEnd()) {
    return copies;
  }
  const bool replicated = config_.mechanism == Mechanism::kCacheReplication;
  for (size_t l = 0; l < num_layers; ++l) {
    const uint32_t node = node_of_[l][rank];
    if (node == kNotCached) {
      continue;
    }
    if (l == 0 && replicated) {
      copies.replicated_all_spines = true;
      continue;
    }
    copies.nodes[copies.num++] = {
        static_cast<uint32_t>(l),
        l + 1 == num_layers ? node : node_of_partition_[l][node]};
  }
  return copies;
}

size_t CacheAllocation::bytes() const {
  size_t total = key_of_rank_.capacity() * sizeof(uint64_t);
  // The key->rank index: its bucket array plus one heap node per entry.
  total += rank_of_key_.bucket_count() * sizeof(void*) +
           rank_of_key_.size() * (sizeof(std::pair<const uint64_t, uint64_t>) +
                                  sizeof(void*));
  for (const auto& row : node_of_) {
    total += row.capacity() * sizeof(uint32_t);
  }
  for (const auto* layers : {&partition_contents_, &layer_contents_}) {
    for (const auto& layer : *layers) {
      for (const auto& contents : layer) {
        total += contents.capacity() * sizeof(uint64_t);
      }
    }
  }
  for (const auto& remap : node_of_partition_) {
    total += remap.capacity() * sizeof(uint32_t);
  }
  return total;
}

void CacheAllocation::Refill(const std::vector<uint64_t>& hottest_first,
                             const Placement& placement) {
  explicit_hot_list_ = true;
  key_of_rank_.assign(hottest_first.begin(),
                      hottest_first.begin() +
                          std::min<size_t>(hottest_first.size(), pool_));
  const std::vector<std::vector<uint32_t>> remaps = node_of_partition_;
  Compute(placement);
  // Only the cached span needs its keys: a key first listed past it is
  // uncached, exactly as a key not listed at all.
  key_of_rank_.resize(CachedRankEnd());
  key_of_rank_.shrink_to_fit();
  rank_of_key_.clear();
  rank_of_key_.reserve(key_of_rank_.size());
  for (uint64_t rank = 0; rank < key_of_rank_.size(); ++rank) {
    // First occurrence wins: a duplicate key keeps its hotter rank.
    rank_of_key_.emplace(key_of_rank_[rank], rank);
  }
  // Failure remaps in effect survive the re-allocation, layer by layer.
  for (size_t l = 0; l < remaps.size(); ++l) {
    if (!remaps[l].empty()) {
      RemapLayer(l, remaps[l]);
    }
  }
}

void CacheAllocation::RemapLayer(size_t layer,
                                 const std::vector<uint32_t>& node_of_partition) {
  assert(layer + 1 < config_.layers.size());
  assert(node_of_partition.size() == config_.layers[layer].nodes);
  node_of_partition_[layer] = node_of_partition;
  DeriveLayerContents(layer);
}

}  // namespace distcache
