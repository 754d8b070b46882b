// Cache allocation (§3.1): which hot objects are cached at which cache nodes.
//
// The hierarchy is a vector of cache layers, top first:
//   * layers 0..L-2 ("upper" layers, group A): each partitions the object space by
//     its own independent hash h_l; node p of layer l caches the hottest objects
//     with h_l(key) % nodes == p. The paper's spine layer is layer 0; §3.1's
//     recursive multi-layer extension simply adds more such layers, each with an
//     independent hash.
//   * layer L-1 (the "leaf" layer, group B): bound to the storage racks — each
//     rack's ToR caches the hottest objects whose primary copies live in that rack
//     (hash h1 ≡ the storage placement hash). Its node count must equal the
//     placement's rack count.
//
// Mechanisms other than DistCache keep their two-layer semantics at any depth:
//   - CacheReplication: every layer-0 node caches the same globally hottest
//     objects (intermediate upper layers stay empty);
//   - CachePartition: leaf caching only;
//   - NoCache: nothing cached.
//
// Capacities are per-node objects per layer (the paper populates 100 per switch).
// By default keys are popularity ranks (0 = hottest), so "hottest of a partition"
// is simply the smallest-rank members of the partition within the candidate pool.
// When the workload's hot set moves (§6.4 hot-spot shift), the controller
// re-allocates via Refill() with an explicit hottest-first key list; rank order is
// then the list order and lookups go through a key→rank index. Storage is per
// rank: one row per layer over the cached span; per-node contents are derived on
// demand (no engine routes by node). The allocation holds no failure state: an
// upper-layer copy is named by its *partition* (node p hosts partition p until
// a failure moves it), and the controller's partition→switch map says where a
// layer-0 partition lives now (CacheController::Place, ClusterModel::CopiesOf).
#ifndef DISTCACHE_CORE_ALLOCATION_H_
#define DISTCACHE_CORE_ALLOCATION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/mechanism.h"
#include "kv/placement.h"
#include "net/topology.h"

namespace distcache {

// One cache layer of the hierarchy (depth capped at kMaxCacheLayers, see
// net/topology.h).
struct LayerSpec {
  uint32_t nodes = 32;          // cache nodes (switches) in this layer
  uint32_t cache_objects = 100; // objects cached per node
};

struct AllocationConfig {
  Mechanism mechanism = Mechanism::kDistCache;
  // Cache layers, top first; layers.back() is the rack-bound leaf layer and must
  // have nodes == placement.num_racks(). Size in [2, kMaxCacheLayers].
  std::vector<LayerSpec> layers{{32, 100}, {32, 100}};
  // How many of the hottest keys are considered for caching. Must comfortably
  // exceed the per-partition demand; 8× the total budget is ample because
  // partitions are hash-balanced.
  uint64_t candidate_pool = 0;  // 0 = auto
  uint64_t hash_seed = 0xd15ca4e;

  // The historical two-layer shape (spine + leaf, uniform per-switch budget).
  static AllocationConfig TwoLayer(Mechanism mechanism, uint32_t num_spine,
                                   uint32_t num_racks, uint32_t per_switch_objects,
                                   uint64_t hash_seed = 0xd15ca4e) {
    AllocationConfig config;
    config.mechanism = mechanism;
    config.layers = {{num_spine, per_switch_objects}, {num_racks, per_switch_objects}};
    config.hash_seed = hash_seed;
    return config;
  }
};

// Where one key is cached: at most one node per layer, in ascending layer order.
struct CacheCopies {
  uint8_t num = 0;
  uint8_t leaf_layer = 1;              // index of the rack-bound layer
  bool replicated_all_spines = false;  // CacheReplication: cached in every layer-0 node
  std::array<CacheNodeId, kMaxCacheLayers> nodes{};

  bool cached() const { return num > 0 || replicated_all_spines; }

  // Convenience views for the two-layer call sites.
  std::optional<uint32_t> spine() const {
    return num > 0 && nodes[0].layer == 0 ? std::optional<uint32_t>(nodes[0].index)
                                          : std::nullopt;
  }
  std::optional<uint32_t> leaf() const {
    for (uint8_t i = num; i-- > 0;) {
      if (nodes[i].layer == leaf_layer) {
        return nodes[i].index;
      }
    }
    return std::nullopt;
  }

  // Number of cached copies that the coherence protocol must update on a write.
  size_t NumCopies(uint32_t num_spine) const {
    return static_cast<size_t>(num) + (replicated_all_spines ? num_spine : 0);
  }
};

class CacheAllocation {
 public:
  // Computes the allocation for keys [0, candidate_pool) given the storage
  // placement. `placement` determines each key's rack (the leaf layer); upper-layer
  // hashes h_0..h_{L-2} are drawn independently from `hash_seed`.
  CacheAllocation(const AllocationConfig& config, const Placement& placement);

  // Copies of `key` (empty copies if the key is not cached), upper layers by
  // partition.
  CacheCopies CopiesOf(uint64_t key) const { return CopiesOfRank(RankOf(key)); }

  // Calls fn(key, copies) once for every distinct cached key, hottest first.
  // O(CachedRankEnd()): the walk is over the stored cached span only.
  template <typename Fn>
  void ForEachCachedKey(Fn&& fn) const {
    for (uint64_t rank = 0; rank < CachedRankEnd(); ++rank) {
      const uint64_t key = KeyOfRank(rank);
      if (RankOf(key) != rank) {
        continue;  // a repeat of a hotter rank's key in the refill list
      }
      const CacheCopies copies = CopiesOfRank(rank);
      if (copies.cached()) {
        fn(key, copies);
      }
    }
  }

  // Partition of a key in upper layer `layer` under h_layer (defined for every
  // key, cached or not).
  uint32_t PartitionOf(size_t layer, uint64_t key) const {
    return static_cast<uint32_t>(hash_[layer](key) % config_.layers[layer].nodes);
  }
  // Historical name for the top layer's partition.
  uint32_t SpinePartitionOf(uint64_t key) const { return PartitionOf(0, key); }

  // Contents of one layer, per rack (leaf) or per partition (upper layers),
  // each in rank order, built per call in O(CachedRankEnd()).
  // By value: index a local, not the call (`for (k : f()[i])` dangles).
  std::vector<std::vector<uint64_t>> layer_contents(size_t layer) const;
  std::vector<std::vector<uint64_t>> spine_contents() const {
    return layer_contents(0);
  }
  std::vector<std::vector<uint64_t>> leaf_contents() const {
    return layer_contents(leaf_layer());
  }

  size_t num_layers() const { return config_.layers.size(); }
  size_t leaf_layer() const { return config_.layers.size() - 1; }

  // Total number of distinct cached keys.
  size_t num_cached_keys() const { return num_cached_; }
  // One past the largest rank holding any cached copy (0 when nothing is
  // cached): the length of the stored per-rank span. Ranks at or beyond this
  // resolve to an uncached CacheCopies.
  uint64_t CachedRankEnd() const { return node_of_.front().size(); }
  uint64_t candidate_pool() const { return pool_; }
  // Heap bytes the allocation holds: its rows and refill index (the index
  // estimated from its bucket and entry counts). O(cached), not O(pool).
  size_t bytes() const;
  const AllocationConfig& config() const { return config_; }

  // Re-allocates the cache onto a new hot set: `hottest_first[i]` is the key the
  // controller now believes has popularity rank i (e.g. observed heavy-hitter
  // counts after a hot-spot shift). Budgets are refilled hottest-first exactly like
  // the constructor; copies stay named by partition, so re-allocation composes
  // with the controller's failure remap. Lists shorter than the
  // candidate pool simply leave the remaining budget demand unfilled; entries
  // beyond the pool are ignored. Afterwards CopiesOf() answers by key id through
  // the key→rank index.
  void Refill(const std::vector<uint64_t>& hottest_first, const Placement& placement);

  // The key id holding popularity rank `rank` in the current allocation
  // (identity unless Refill installed an explicit hot list; with a list, ranks
  // beyond the cached span have no key and map back to themselves).
  uint64_t KeyOfRank(uint64_t rank) const {
    return !explicit_hot_list_ || rank >= key_of_rank_.size() ? rank
                                                              : key_of_rank_[rank];
  }

 private:
  // node_of_ marker for a layer that holds no copy of the rank.
  static constexpr uint32_t kNotCached = UINT32_MAX;

  void Compute(const Placement& placement);
  CacheCopies CopiesOfRank(uint64_t rank) const;

  // Rank of `key` in the current hot-set ordering, or pool_ when unranked (tail).
  uint64_t RankOf(uint64_t key) const {
    if (!explicit_hot_list_) {
      return key;  // identity: ranks are key ids
    }
    const auto it = rank_of_key_.find(key);
    return it == rank_of_key_.end() ? pool_ : it->second;
  }

  AllocationConfig config_;
  // Independent per-upper-layer hashes; hash_[0] keeps the historical h0 seed
  // derivation so two-layer allocations are bit-identical to the pre-hierarchy
  // code. The leaf layer has no hash (it follows the placement).
  std::vector<TabulationHash> hash_;
  uint64_t pool_ = 0;
  size_t num_cached_ = 0;
  // Current hot-set ordering: key_of_rank_[r] is the key with popularity rank r,
  // kept (like the inverse index below) for the cached span only. Until
  // Refill() installs an explicit list the mapping is the identity (keys are
  // ranks — the construction default). The
  // flag, not emptiness, is the discriminator: an *empty observed list* is a
  // legitimate refill that caches nothing, not a revert to identity.
  bool explicit_hot_list_ = false;
  std::vector<uint64_t> key_of_rank_;
  std::unordered_map<uint64_t, uint64_t> rank_of_key_;
  // Dense per-layer, per-rank copy info for the cached span only: ranks
  // [0, CachedRankEnd()), where the hottest-first walk stopped once every open
  // budget was full (or the ranked keys ran out). node_of_[l][rank] is the node
  // holding the rank's copy in layer l — for upper layers the partition, for
  // the leaf layer the rack from the placement of the key — or
  // kNotCached.
  std::vector<std::vector<uint32_t>> node_of_;
};

}  // namespace distcache

#endif  // DISTCACHE_CORE_ALLOCATION_H_
