#include "core/allocation.h"

#include <gtest/gtest.h>

#include <set>

namespace distcache {
namespace {

AllocationConfig BaseConfig(Mechanism m) {
  return AllocationConfig::TwoLayer(m, /*num_spine=*/8, /*num_racks=*/8,
                                    /*per_switch_objects=*/10);
}

Placement BasePlacement() { return Placement(8, 4); }

TEST(CacheAllocation, NoCacheCachesNothing) {
  CacheAllocation alloc(BaseConfig(Mechanism::kNoCache), BasePlacement());
  EXPECT_EQ(alloc.num_cached_keys(), 0u);
  EXPECT_FALSE(alloc.CopiesOf(0).cached());
  for (const auto& contents : alloc.spine_contents()) {
    EXPECT_TRUE(contents.empty());
  }
}

TEST(CacheAllocation, CachePartitionIsLeafOnly) {
  CacheAllocation alloc(BaseConfig(Mechanism::kCachePartition), BasePlacement());
  for (const auto& contents : alloc.spine_contents()) {
    EXPECT_TRUE(contents.empty());
  }
  size_t leaf_total = 0;
  for (const auto& contents : alloc.leaf_contents()) {
    EXPECT_EQ(contents.size(), 10u);
    leaf_total += contents.size();
  }
  EXPECT_EQ(leaf_total, 80u);
  const CacheCopies c = alloc.CopiesOf(alloc.leaf_contents()[0][0]);
  EXPECT_TRUE(c.leaf().has_value());
  EXPECT_FALSE(c.spine().has_value());
  EXPECT_FALSE(c.replicated_all_spines);
  EXPECT_EQ(c.NumCopies(8), 1u);
}

TEST(CacheAllocation, ReplicationPutsSameContentInEverySpine) {
  CacheAllocation alloc(BaseConfig(Mechanism::kCacheReplication), BasePlacement());
  const auto& spine = alloc.spine_contents();
  for (uint32_t s = 1; s < 8; ++s) {
    EXPECT_EQ(spine[s], spine[0]);
  }
  ASSERT_EQ(spine[0].size(), 10u);
  // Replicated objects are the globally hottest (ranks 0..9).
  for (uint64_t k = 0; k < 10; ++k) {
    const CacheCopies c = alloc.CopiesOf(k);
    EXPECT_TRUE(c.replicated_all_spines) << k;
    EXPECT_EQ(c.NumCopies(8), c.leaf() ? 9u : 8u);
  }
}

TEST(CacheAllocation, DistCacheSpinePartitionedByH0) {
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), BasePlacement());
  std::set<uint64_t> seen;
  const auto spine = alloc.spine_contents();
  for (uint32_t s = 0; s < 8; ++s) {
    const auto& contents = spine[s];
    EXPECT_EQ(contents.size(), 10u) << "spine " << s;
    for (uint64_t key : contents) {
      EXPECT_EQ(alloc.SpinePartitionOf(key), s);
      EXPECT_TRUE(seen.insert(key).second) << "duplicate spine copy of " << key;
    }
  }
}

TEST(CacheAllocation, DistCacheHotKeysHaveTwoCopies) {
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), BasePlacement());
  // The globally hottest keys should be cached in both layers (they are at the top
  // of both their rack's and their spine partition's rankings).
  int both = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    const CacheCopies c = alloc.CopiesOf(k);
    if (c.spine() && c.leaf()) {
      ++both;
      EXPECT_EQ(c.NumCopies(8), 2u);
    }
  }
  EXPECT_GE(both, 8);  // hash imbalance may push out a straggler
}

TEST(CacheAllocation, ContentsConsistentWithCopiesOf) {
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), BasePlacement());
  const auto spine = alloc.spine_contents();
  for (uint32_t s = 0; s < 8; ++s) {
    for (uint64_t key : spine[s]) {
      const CacheCopies c = alloc.CopiesOf(key);
      ASSERT_TRUE(c.spine().has_value());
      EXPECT_EQ(*c.spine(), s);
    }
  }
  const auto leaf = alloc.leaf_contents();
  for (uint32_t l = 0; l < 8; ++l) {
    for (uint64_t key : leaf[l]) {
      const CacheCopies c = alloc.CopiesOf(key);
      ASSERT_TRUE(c.leaf().has_value());
      EXPECT_EQ(*c.leaf(), l);
    }
  }
}

TEST(CacheAllocation, LeafCopyMatchesPlacementRack) {
  const Placement placement = BasePlacement();
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), placement);
  const auto leaf = alloc.leaf_contents();
  for (uint32_t l = 0; l < 8; ++l) {
    for (uint64_t key : leaf[l]) {
      EXPECT_EQ(placement.RackOf(key), l);
    }
  }
}

TEST(CacheAllocation, KeysBeyondPoolAreUncached) {
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), BasePlacement());
  EXPECT_FALSE(alloc.CopiesOf(alloc.candidate_pool() + 5).cached());
}

TEST(CacheAllocation, AutoPoolScalesWithBudget) {
  AllocationConfig cfg = BaseConfig(Mechanism::kDistCache);
  CacheAllocation alloc(cfg, BasePlacement());
  EXPECT_EQ(alloc.candidate_pool(), 8u * 10u * 16u);
}

// Refill re-allocates onto an explicit hottest-first key list: the listed keys
// are cached at their true rack/partition and the old hot set is evicted (a
// spine remap in effect is the controller's; see controller_test.cc).
TEST(CacheAllocation, RefillMovesCacheToObservedHotSet) {
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), BasePlacement());
  ASSERT_TRUE(alloc.CopiesOf(0).cached());  // identity hot set: rank 0 cached
  std::vector<uint64_t> hottest;
  for (uint64_t rank = 0; rank < alloc.candidate_pool(); ++rank) {
    hottest.push_back(rank + 1'000'000);  // an entirely new hot set
  }
  alloc.Refill(hottest, BasePlacement());
  EXPECT_FALSE(alloc.CopiesOf(0).cached());  // old hot keys evicted
  EXPECT_TRUE(alloc.CopiesOf(1'000'000).cached());  // new rank-0 key cached
  EXPECT_EQ(alloc.KeyOfRank(0), 1'000'000u);
  EXPECT_GT(alloc.num_cached_keys(), 0u);
}

// An *empty* observed list is a refill that caches nothing — not a silent
// revert to the identity mapping (regression guard: a kReallocateCache firing
// before any key was observed twice must empty the cache, not repopulate the
// pre-shift one).
TEST(CacheAllocation, RefillWithEmptyObservationsCachesNothing) {
  CacheAllocation alloc(BaseConfig(Mechanism::kDistCache), BasePlacement());
  ASSERT_GT(alloc.num_cached_keys(), 0u);
  alloc.Refill({}, BasePlacement());
  EXPECT_EQ(alloc.num_cached_keys(), 0u);
  EXPECT_FALSE(alloc.CopiesOf(0).cached());
  for (const auto& contents : alloc.spine_contents()) {
    EXPECT_TRUE(contents.empty());
  }
}

}  // namespace
}  // namespace distcache
