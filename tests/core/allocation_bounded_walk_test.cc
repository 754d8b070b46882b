// Differential test for the allocation's bounded walk: CacheAllocation stops
// its hottest-first walk once every open budget is full and stores per-rank
// state for the walked prefix only. The reference below is the plain walk over
// the whole candidate pool, written out here independently of the library; the
// two must agree on every observable — CopiesOf for every key, per-node
// contents, the cached-key count and the cached rank span — across mechanisms,
// hierarchy depths, empty layers, starved pools and refills.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/allocation.h"

namespace distcache {
namespace {

// Full-pool reference walk: one dense per-rank row per layer, every rank of
// the candidate pool (or of the refill list) visited.
class FullPoolWalk {
 public:
  FullPoolWalk(const AllocationConfig& config, uint64_t pool,
               const CacheAllocation& hashes, const Placement& placement)
      : config_(config), pool_(pool), hashes_(hashes), placement_(placement) {
    Walk();
  }

  void Refill(const std::vector<uint64_t>& hottest_first) {
    explicit_ = true;
    key_of_rank_.assign(hottest_first.begin(),
                        hottest_first.begin() +
                            std::min<size_t>(hottest_first.size(), pool_));
    rank_of_key_.clear();
    for (uint64_t rank = 0; rank < key_of_rank_.size(); ++rank) {
      rank_of_key_.emplace(key_of_rank_[rank], rank);
    }
    Walk();
  }

  CacheCopies CopiesOf(uint64_t key) const {
    CacheCopies copies;
    const size_t num_layers = config_.layers.size();
    copies.leaf_layer = static_cast<uint8_t>(num_layers - 1);
    uint64_t rank = key;
    if (explicit_) {
      const auto it = rank_of_key_.find(key);
      rank = it == rank_of_key_.end() ? pool_ : it->second;
    }
    if (rank >= pool_) {
      return copies;
    }
    for (size_t l = 0; l < num_layers; ++l) {
      if (!cached_[l][rank]) {
        continue;
      }
      if (l == 0 && config_.mechanism == Mechanism::kCacheReplication) {
        copies.replicated_all_spines = true;
        continue;
      }
      copies.nodes[copies.num++] = {static_cast<uint32_t>(l), node_[l][rank]};
    }
    return copies;
  }

  std::vector<std::vector<uint64_t>> LayerContents(size_t layer) const {
    const size_t leaf = config_.layers.size() - 1;
    if (layer == leaf) {
      return leaf_contents_;
    }
    if (config_.mechanism != Mechanism::kCacheReplication) {
      return partition_contents_[layer];
    }
    std::vector<std::vector<uint64_t>> out(config_.layers[layer].nodes);
    if (layer == 0) {
      for (auto& contents : out) {
        contents = partition_contents_[0][0];
      }
    }
    return out;
  }

  size_t NumCached() const {
    size_t n = 0;
    for (uint64_t rank = 0; rank < pool_; ++rank) {
      n += AnyCached(rank) ? 1 : 0;
    }
    return n;
  }

  uint64_t CachedRankEnd() const {
    for (uint64_t rank = pool_; rank-- > 0;) {
      if (AnyCached(rank)) {
        return rank + 1;
      }
    }
    return 0;
  }

 private:
  bool AnyCached(uint64_t rank) const {
    for (const auto& row : cached_) {
      if (row[rank]) {
        return true;
      }
    }
    return false;
  }

  void Walk() {
    const size_t num_layers = config_.layers.size();
    const size_t leaf = num_layers - 1;
    const uint64_t ranked =
        explicit_ ? std::min<uint64_t>(key_of_rank_.size(), pool_) : pool_;
    cached_.assign(num_layers, std::vector<uint8_t>(pool_, 0));
    node_.assign(num_layers, std::vector<uint32_t>(pool_, 0));
    leaf_contents_.assign(config_.layers[leaf].nodes, {});
    partition_contents_.assign(leaf, {});
    for (size_t l = 0; l < leaf; ++l) {
      partition_contents_[l].assign(config_.layers[l].nodes, {});
    }
    for (uint64_t rank = 0; rank < ranked; ++rank) {
      const uint64_t key = explicit_ ? key_of_rank_[rank] : rank;
      const uint32_t rack = placement_.RackOf(key);
      node_[leaf][rank] = rack;
      if (config_.mechanism != Mechanism::kNoCache &&
          leaf_contents_[rack].size() < config_.layers[leaf].cache_objects) {
        leaf_contents_[rack].push_back(key);
        cached_[leaf][rank] = 1;
      }
      if (config_.mechanism == Mechanism::kDistCache) {
        for (size_t l = 0; l < leaf; ++l) {
          const uint32_t partition = hashes_.PartitionOf(l, key);
          node_[l][rank] = partition;
          if (partition_contents_[l][partition].size() <
              config_.layers[l].cache_objects) {
            partition_contents_[l][partition].push_back(key);
            cached_[l][rank] = 1;
          }
        }
      } else if (config_.mechanism == Mechanism::kCacheReplication &&
                 rank < config_.layers[0].cache_objects) {
        partition_contents_[0][0].push_back(key);
        cached_[0][rank] = 1;
      }
    }
  }

  AllocationConfig config_;
  uint64_t pool_;
  const CacheAllocation& hashes_;  // only PartitionOf: the per-layer hashes
  const Placement& placement_;
  bool explicit_ = false;
  std::vector<uint64_t> key_of_rank_;
  std::unordered_map<uint64_t, uint64_t> rank_of_key_;
  std::vector<std::vector<uint8_t>> cached_;
  std::vector<std::vector<uint32_t>> node_;
  std::vector<std::vector<uint64_t>> leaf_contents_;
  std::vector<std::vector<std::vector<uint64_t>>> partition_contents_;
};

void ExpectSameAllocation(const CacheAllocation& alloc, const FullPoolWalk& ref,
                          const std::vector<uint64_t>& extra_keys) {
  const uint64_t pool = alloc.candidate_pool();
  auto expect_key = [&](uint64_t key) {
    const CacheCopies got = alloc.CopiesOf(key);
    const CacheCopies want = ref.CopiesOf(key);
    ASSERT_EQ(got.num, want.num) << "key " << key;
    ASSERT_EQ(got.leaf_layer, want.leaf_layer) << "key " << key;
    ASSERT_EQ(got.replicated_all_spines, want.replicated_all_spines) << "key " << key;
    for (uint8_t i = 0; i < got.num; ++i) {
      ASSERT_EQ(got.nodes[i].layer, want.nodes[i].layer) << "key " << key;
      ASSERT_EQ(got.nodes[i].index, want.nodes[i].index) << "key " << key;
    }
  };
  for (uint64_t key = 0; key < pool + 64; ++key) {
    expect_key(key);
  }
  for (const uint64_t key : extra_keys) {
    expect_key(key);
  }
  for (size_t l = 0; l < alloc.num_layers(); ++l) {
    EXPECT_EQ(alloc.layer_contents(l), ref.LayerContents(l)) << "layer " << l;
  }
  EXPECT_EQ(alloc.num_cached_keys(), ref.NumCached());
  EXPECT_EQ(alloc.CachedRankEnd(), ref.CachedRankEnd());
}


TEST(CacheAllocation, BoundedWalkMatchesFullPoolWalk) {
  struct Shape {
    std::string name;
    std::vector<LayerSpec> layers;
    uint64_t candidate_pool;  // 0 = auto (8x the total budget)
  };
  const std::vector<Shape> shapes = {
      {"L2", {{8, 10}, {8, 10}}, 0},
      {"L3", {{4, 6}, {6, 5}, {8, 10}}, 0},
      {"L4", {{3, 4}, {5, 3}, {4, 7}, {8, 6}}, 0},
      {"L3 empty middle layer", {{4, 6}, {6, 0}, {8, 10}}, 0},
      {"L2 empty leaf layer", {{8, 10}, {8, 0}}, 0},
      {"L3 starved pool", {{4, 6}, {6, 5}, {8, 10}}, 40},
      {"L2 pool of one", {{8, 10}, {8, 10}}, 1},
  };
  const std::vector<Mechanism> mechanisms = {
      Mechanism::kNoCache, Mechanism::kCachePartition,
      Mechanism::kCacheReplication, Mechanism::kDistCache};
  const Placement placement(8, 4);

  for (const Shape& shape : shapes) {
    for (const Mechanism mechanism : mechanisms) {
      AllocationConfig config;
      config.mechanism = mechanism;
      config.layers = shape.layers;
      config.candidate_pool = shape.candidate_pool;
      const uint64_t pool = CacheAllocation(config, placement).candidate_pool();

      // Refill lists: a short one (fewer keys than the budgets hold), an
      // empty one, one with duplicates (a repeated key keeps its hotter rank
      // yet still takes budget at its later rank) and one longer than the
      // pool (the excess is ignored). Keys straddle the old pool boundary.
      std::vector<uint64_t> short_list;
      for (uint64_t i = 0; i < 25; ++i) {
        short_list.push_back(pool + 40 - 3 * i);
      }
      std::vector<uint64_t> dup_list;
      for (uint64_t i = 0; i < 2 * pool; ++i) {
        dup_list.push_back((i * 7919) % (pool / 2 + 1) + 17);
      }
      std::vector<uint64_t> long_list;
      for (uint64_t i = 0; i < pool + 100; ++i) {
        long_list.push_back(pool + 63 - i % (pool + 64));
      }
      const std::vector<std::pair<std::string, std::vector<uint64_t>>> lists = {
          {"short", short_list},
          {"empty", {}},
          {"duplicates", dup_list},
          {"long", long_list},
      };

      for (const auto& [list_name, list] : lists) {
        SCOPED_TRACE(shape.name + " mechanism " +
                     std::to_string(static_cast<int>(mechanism)) + " refill " +
                     list_name);
        CacheAllocation alloc(config, placement);
        FullPoolWalk ref(config, pool, alloc, placement);
        {
          SCOPED_TRACE("construction");
          ExpectSameAllocation(alloc, ref, list);
        }
        alloc.Refill(list, placement);
        ref.Refill(list);
        {
          SCOPED_TRACE("refill");
          ExpectSameAllocation(alloc, ref, list);
        }
      }
    }
  }
}

// Memory guard at the memory-wall test geometry (4M keys, 2M-rank pool, 8+8
// nodes x 50 objects): the allocation holds the cached span, not the pool. The
// dense per-rank arrays it replaced held 10 B per pool rank (a cached flag
// and a node id per layer); the bounded walk must stay under 1/50 of that,
// before and after a refill onto a pool-sized observed list.
TEST(CacheAllocation, BytesStayProportionalToTheCachedSpan) {
  constexpr uint64_t kPool = 2'000'000;
  AllocationConfig config =
      AllocationConfig::TwoLayer(Mechanism::kDistCache, 8, 8, 50);
  config.candidate_pool = kPool;
  const Placement placement(8, 4);
  CacheAllocation alloc(config, placement);
  ASSERT_EQ(alloc.candidate_pool(), kPool);
  const size_t dense_bytes = 10 * kPool;
  EXPECT_LE(alloc.bytes() * 50, dense_bytes) << alloc.bytes() << " B";
  EXPECT_GT(alloc.bytes(), 0u);

  std::vector<uint64_t> shifted(kPool);
  std::iota(shifted.begin(), shifted.end(), uint64_t{1'000'000});
  alloc.Refill(shifted, placement);
  EXPECT_TRUE(alloc.CopiesOf(1'000'000).cached());
  EXPECT_LE(alloc.bytes() * 50, dense_bytes) << alloc.bytes() << " B after refill";
}

// The allocation stores one 4 B row entry per layer per rank of the cached
// span and nothing else — no per-node lists (per-node contents are derived on
// demand, and each call derives the same lists), no failure map. A
// refill adds only its key->rank index (the key list plus the hash index,
// at most 48 B per rank of the span). Checked at a wide cached span (8+8
// nodes x 5,000 objects, 1M-rank pool), where per-node key lists would add
// 8 B per cached copy.
TEST(CacheAllocation, HoldsOnlyPerRankRows) {
  AllocationConfig config =
      AllocationConfig::TwoLayer(Mechanism::kDistCache, 8, 8, 5'000);
  config.candidate_pool = 1'000'000;
  const Placement placement(8, 4);
  CacheAllocation alloc(config, placement);
  auto rows_bytes = [&] { return 4 * alloc.num_layers() * alloc.CachedRankEnd(); };
  ASSERT_GT(alloc.CachedRankEnd(), 40'000u);
  EXPECT_LE(alloc.bytes(), rows_bytes()) << alloc.CachedRankEnd() << " ranks";
  for (size_t l = 0; l < alloc.num_layers(); ++l) {
    EXPECT_EQ(alloc.layer_contents(l), alloc.layer_contents(l)) << "layer " << l;
  }

  std::vector<uint64_t> shifted(config.candidate_pool);
  std::iota(shifted.begin(), shifted.end(), uint64_t{3'000'000});
  alloc.Refill(shifted, placement);
  ASSERT_GT(alloc.CachedRankEnd(), 40'000u);
  EXPECT_LE(alloc.bytes(), rows_bytes() + 48 * alloc.CachedRankEnd())
      << alloc.CachedRankEnd() << " ranks after refill";
  for (size_t l = 0; l < alloc.num_layers(); ++l) {
    EXPECT_EQ(alloc.layer_contents(l), alloc.layer_contents(l)) << "layer " << l;
  }
}

}  // namespace
}  // namespace distcache
