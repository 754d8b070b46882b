#include "core/pot_router.h"

#include <gtest/gtest.h>

namespace distcache {
namespace {

TEST(PotRouter, SingleCandidateAlwaysChosen) {
  LoadTracker t({{4, 4}});
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 1);
  EXPECT_EQ(router.Choose({{0, 1}}), 0u);
}

TEST(PotRouter, PicksLessLoaded) {
  LoadTracker t({{4, 4}});
  t.Set({0, 0}, 100);
  t.Set({1, 0}, 10);
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 2);
  const std::vector<CacheNodeId> candidates{{0, 0}, {1, 0}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(router.Choose(candidates), 1u);
  }
  t.Set({1, 0}, 500);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(router.Choose(candidates), 0u);
  }
}

TEST(PotRouter, TiesBrokenRoughlyEvenly) {
  LoadTracker t({{4, 4}});
  t.Set({0, 0}, 50);
  t.Set({1, 0}, 50);
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 3);
  const std::vector<CacheNodeId> candidates{{0, 0}, {1, 0}};
  int first = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    first += router.Choose(candidates) == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(first) / kTrials, 0.5, 0.05);
}

TEST(PotRouter, PowerOfKChoosesGlobalMinimum) {
  // §3.1: multi-layer hierarchies use power-of-k-choices.
  LoadTracker t({{8, 8}});
  t.Set({0, 0}, 30);
  t.Set({0, 1}, 20);
  t.Set({1, 2}, 10);
  t.Set({1, 3}, 40);
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 4);
  const std::vector<CacheNodeId> candidates{{0, 0}, {0, 1}, {1, 2}, {1, 3}};
  EXPECT_EQ(router.Choose(candidates), 2u);
}

// k-ary tie break (invariant 3 at k > 2): equally loaded candidates of a
// multi-layer hierarchy must share the choice uniformly, not herd onto the
// lowest index.
TEST(PotRouter, KaryTiesBrokenUniformly) {
  LoadTracker t({{4, 4, 4, 4}});
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 17);
  const std::vector<CacheNodeId> candidates{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  constexpr int kTrials = 40000;
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < kTrials; ++i) {
    ++counts[router.Choose(candidates)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.25, 0.02);
  }
}

// Dead-node degradation at k > 2: a MarkDead-pinned candidate (+inf view,
// core/load_tracker.h) must lose every power-of-k comparison.
TEST(PotRouter, KaryDeadCandidateNeverChosen) {
  LoadTracker t({{4, 4, 4}});
  t.Set({0, 0}, 1000);
  t.Set({1, 1}, 999);
  t.Set({2, 2}, 998);
  t.MarkDead({2, 2});  // the least-loaded candidate dies
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 23);
  const std::vector<CacheNodeId> candidates{{0, 0}, {1, 1}, {2, 2}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.Choose(candidates), 1u);  // the alive minimum
  }
  t.MarkAlive({2, 2});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.Choose(candidates), 2u);  // shadow estimate restored
  }
}

TEST(PotRouter, RandomPolicyUsesBothCandidates) {
  LoadTracker t({{4, 4}});
  t.Set({0, 0}, 1000);  // load-aware routing would avoid this one entirely
  PotRouter router(&t, RoutingPolicy::kRandom, 5);
  const std::vector<CacheNodeId> candidates{{0, 0}, {1, 0}};
  int first = 0;
  for (int i = 0; i < 10000; ++i) {
    first += router.Choose(candidates) == 0 ? 1 : 0;
  }
  EXPECT_NEAR(first / 10000.0, 0.5, 0.05);
}

TEST(PotRouter, FirstChoicePolicyIsDeterministic) {
  LoadTracker t({{4, 4}});
  t.Set({0, 0}, 1000);
  PotRouter router(&t, RoutingPolicy::kFirstChoice, 6);
  const std::vector<CacheNodeId> candidates{{0, 0}, {1, 0}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.Choose(candidates), 0u);
  }
}

TEST(PotRouter, EmptyCandidatesReturnsZero) {
  LoadTracker t({{4, 4}});
  PotRouter router(&t, RoutingPolicy::kPowerOfTwo, 7);
  EXPECT_EQ(router.Choose({}), 0u);
}

// ChoosePair(a, b) is documented as semantically identical to Choose({a, b}):
// given the same RNG stream, the two must pick the same node for every load
// configuration — including exact ties, where both must take the same branch of
// the reservoir tie-break — under all three routing policies. (The batched
// backends use ChoosePair while the sequential reference uses Choose; a
// divergence here would silently skew their parity.)
class PotRouterParityTest : public ::testing::TestWithParam<RoutingPolicy> {};

TEST_P(PotRouterParityTest, ChoosePairMatchesChoose) {
  LoadTracker tracker({{4, 4}});
  constexpr uint64_t kSeed = 99;
  PotRouter via_choose(&tracker, GetParam(), kSeed);
  PotRouter via_pair(&tracker, GetParam(), kSeed);
  const CacheNodeId a{0, 1};
  const CacheNodeId b{1, 2};
  const std::vector<CacheNodeId> candidates{a, b};
  // Cycle through less-loaded-a / tie / less-loaded-b so every branch (including
  // the RNG-consuming tie) is exercised many times on the shared stream.
  const double loads[][2] = {{1.0, 2.0}, {5.0, 5.0}, {9.0, 3.0}, {0.0, 0.0}};
  for (int i = 0; i < 400; ++i) {
    const auto& lc = loads[i % 4];
    tracker.Set(a, lc[0]);
    tracker.Set(b, lc[1]);
    const CacheNodeId chosen = candidates[via_choose.Choose(candidates)];
    const CacheNodeId paired = via_pair.ChoosePair(a, b);
    ASSERT_EQ(chosen.layer, paired.layer) << "iteration " << i;
    ASSERT_EQ(chosen.index, paired.index) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PotRouterParityTest,
                         ::testing::Values(RoutingPolicy::kPowerOfTwo,
                                           RoutingPolicy::kRandom,
                                           RoutingPolicy::kFirstChoice),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case RoutingPolicy::kPowerOfTwo: return "PowerOfTwo";
                             case RoutingPolicy::kRandom: return "Random";
                             case RoutingPolicy::kFirstChoice: return "FirstChoice";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace distcache
