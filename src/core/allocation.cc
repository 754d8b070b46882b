#include "core/allocation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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
  // Fill count per budget: filled[l][node] per leaf rack and upper-layer
  // partition; under CacheReplication filled[0][0] counts the replicated set.
  std::vector<std::vector<uint32_t>> filled;
  for (const LayerSpec& layer : config_.layers) {
    filled.emplace_back(layer.nodes, 0);
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
  // Takes a slot of one budget (`count` of `capacity` filled) if it has room.
  auto admit = [&open](uint32_t& count, uint32_t capacity) {
    if (count >= capacity) {
      return false;
    }
    ++count;
    open -= count == capacity ? 1 : 0;
    return true;
  };

  // Ranks are visited hottest-first, so a single ascending pass fills every
  // per-node budget with the hottest members of its partition. All hashes (h_l,
  // placement) are evaluated on the *key id* holding the rank, so an explicit hot
  // list lands each key at its true rack/partitions.
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
        admit(filled[leaf][rack], config_.layers[leaf].cache_objects)) {
      node_of_[leaf][rank] = rack;
      any = true;
    }
    if (upper_partitioned) {
      for (size_t l = 0; l < leaf; ++l) {
        const uint32_t partition = PartitionOf(l, key);
        if (admit(filled[l][partition], config_.layers[l].cache_objects)) {
          node_of_[l][rank] = partition;
          any = true;
        }
      }
    } else if (top_replicated && rank < config_.layers[0].cache_objects) {
      // The globally hottest objects; identical content in every layer-0 node.
      admit(filled[0][0], config_.layers[0].cache_objects);
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
}

std::vector<std::vector<uint64_t>> CacheAllocation::layer_contents(
    size_t layer) const {
  // One list per rack (leaf) or partition (upper layer), in rank order.
  std::vector<std::vector<uint64_t>> lists(config_.layers[layer].nodes);
  const std::vector<uint32_t>& row = node_of_[layer];
  for (uint64_t rank = 0; rank < row.size(); ++rank) {
    if (row[rank] != kNotCached) {
      lists[row[rank]].push_back(KeyOfRank(rank));
    }
  }
  if (layer == 0 && config_.mechanism == Mechanism::kCacheReplication) {
    // Partition 0 holds the replicated set; every layer-0 node caches it.
    std::fill(lists.begin() + 1, lists.end(), lists[0]);
  }
  return lists;
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
    copies.nodes[copies.num++] = {static_cast<uint32_t>(l), node};
  }
  return copies;
}

size_t CacheAllocation::bytes() const {
  size_t total = key_of_rank_.capacity() * sizeof(uint64_t);
  // The key->rank index: its bucket array plus one heap node per entry. A
  // one-bucket array is the map's inline single bucket (libstdc++), not heap.
  const size_t buckets = rank_of_key_.bucket_count();
  total += (buckets > 1 ? buckets * sizeof(void*) : 0) +
           rank_of_key_.size() * (sizeof(std::pair<const uint64_t, uint64_t>) +
                                  sizeof(void*));
  for (const auto& row : node_of_) {
    total += row.capacity() * sizeof(uint32_t);
  }
  return total;
}

void CacheAllocation::Refill(const std::vector<uint64_t>& hottest_first,
                             const Placement& placement) {
  explicit_hot_list_ = true;
  key_of_rank_.assign(hottest_first.begin(),
                      hottest_first.begin() +
                          std::min<size_t>(hottest_first.size(), pool_));
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
}

}  // namespace distcache
