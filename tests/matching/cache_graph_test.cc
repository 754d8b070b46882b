#include "matching/cache_graph.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/zipf.h"

namespace distcache {
namespace {

TEST(CacheGraph, NodeIndicesPartitionLayers) {
  CacheGraph g(100, {8, 8}, /*seed=*/1);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_LT(g.NodeOf(i, 0), 8u);
    EXPECT_GE(g.NodeOf(i, 1), 8u);
    EXPECT_LT(g.NodeOf(i, 1), 16u);
  }
  EXPECT_EQ(g.num_cache_nodes(), 16u);
}

TEST(CacheGraph, LayerLayoutIsConsecutive) {
  CacheGraph g(50, {4, 8, 2}, 1);
  EXPECT_EQ(g.num_layers(), 3u);
  EXPECT_EQ(g.num_cache_nodes(), 14u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_LT(g.NodeOf(i, 0), 4u);
    EXPECT_GE(g.NodeOf(i, 1), 4u);
    EXPECT_LT(g.NodeOf(i, 1), 12u);
    EXPECT_GE(g.NodeOf(i, 2), 12u);
    EXPECT_LT(g.NodeOf(i, 2), 14u);
  }
}

TEST(CacheGraph, ChoicesOfReturnsOnePerLayer) {
  CacheGraph g(10, {4, 4}, 2);
  const auto choices = g.ChoicesOf(3);
  ASSERT_EQ(choices.size(), 2u);
  EXPECT_EQ(choices[0], g.NodeOf(3, 0));
  EXPECT_EQ(choices[1], g.NodeOf(3, 1));
}

TEST(CacheGraph, SingleHashIsOneLayer) {
  // The Lemma 3 strawman: one hash function, one layer of nodes.
  CacheGraph g(50, {8}, 1);
  EXPECT_EQ(g.num_layers(), 1u);
  EXPECT_EQ(g.num_cache_nodes(), 8u);
}

TEST(CacheGraph, UnderloadedAlwaysFeasible) {
  CacheGraph g(64, {8, 8}, 2);
  const std::vector<double> rates(64, 0.1);  // total 6.4 vs capacity 16
  EXPECT_TRUE(g.FeasibleMatching(rates, {1.0, 1.0}));
}

TEST(CacheGraph, SingleObjectOverCombinedCapacityInfeasible) {
  CacheGraph g(1, {4, 4}, 3);
  // The object has exactly two candidate nodes of capacity 1 each: rate > 2 must fail.
  EXPECT_TRUE(g.FeasibleMatching({1.9}, {1.0, 1.0}));
  EXPECT_FALSE(g.FeasibleMatching({2.1}, {1.0, 1.0}));
}

TEST(CacheGraph, ThreeLayersAbsorbHotterObjects) {
  CacheGraph g(1, {4, 4, 4}, 4);
  EXPECT_TRUE(g.FeasibleMatching({2.9}, {1.0, 1.0, 1.0}));
  EXPECT_FALSE(g.FeasibleMatching({3.1}, {1.0, 1.0, 1.0}));
}

TEST(CacheGraph, HeterogeneousLayerCapacities) {
  CacheGraph g(1, {2, 2}, 5);
  // Layer 0 nodes have capacity 3, layer 1 capacity 1: combined 4 for one object.
  EXPECT_TRUE(g.FeasibleMatching({3.9}, {3.0, 1.0}));
  EXPECT_FALSE(g.FeasibleMatching({4.1}, {3.0, 1.0}));
}

TEST(CacheGraph, TotalOverCapacityInfeasible) {
  for (uint64_t seed : {4, 8}) {
    CacheGraph g(32, {4, 4}, seed);
    const std::vector<double> rates(32, 0.3);  // total 9.6 > capacity 8
    EXPECT_FALSE(g.FeasibleMatching(rates, {1.0, 1.0})) << "seed=" << seed;
  }
}

TEST(CacheGraph, MaxSupportedRateBracketsFeasibility) {
  CacheGraph g(64, {8, 8}, 5);
  ZipfDistribution dist(64, 0.9);
  std::vector<double> pmf(64);
  for (uint64_t i = 0; i < 64; ++i) {
    pmf[i] = dist.Pmf(i);
  }
  const double r_star = g.MaxSupportedRate(pmf, 1.0);
  EXPECT_GT(r_star, 0.0);
  EXPECT_LE(r_star, 16.0);
  // Just below R* must be feasible; 10% above must not.
  std::vector<double> rates(64);
  double mass = 0.0;
  for (double p : pmf) {
    mass += p;
  }
  for (size_t i = 0; i < 64; ++i) {
    rates[i] = 0.98 * r_star * pmf[i] / mass;
  }
  EXPECT_TRUE(g.FeasibleMatching(rates, {1.0, 1.0}));
  for (size_t i = 0; i < 64; ++i) {
    rates[i] = 1.1 * r_star * pmf[i] / mass;
  }
  EXPECT_FALSE(g.FeasibleMatching(rates, {1.0, 1.0}));
}

TEST(CacheGraph, TwoHashesBeatOneHash) {
  // Lemma 3's point, as supportable rate: the PoT graph supports far more than the
  // single-hash graph under the same per-node capacity.
  ZipfDistribution dist(64, 0.99);
  std::vector<double> pmf(64);
  for (uint64_t i = 0; i < 64; ++i) {
    pmf[i] = dist.Pmf(i);
  }
  double two = 0.0;
  double one = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    two += CacheGraph(64, {8, 8}, seed).MaxSupportedRate(pmf, 1.0);
    one += CacheGraph(64, {8}, seed).MaxSupportedRate(pmf, 1.0);
  }
  EXPECT_GT(two, 1.5 * one);
}

TEST(CacheGraph, MoreLayersRaiseSupportedRate) {
  constexpr size_t kObjects = 64;
  const std::vector<double> pmf = CappedZipfPmf(kObjects, 0.99, 1.0 / 16.0);
  double prev = 0.0;
  for (size_t layers : {1, 2, 3}) {
    double sum = 0.0;
    for (uint64_t seed = 0; seed < 5; ++seed) {
      CacheGraph g(kObjects, std::vector<size_t>(layers, 8), seed);
      sum += g.MaxSupportedRate(pmf, 1.0, 0.01);
    }
    const double avg = sum / 5.0;
    EXPECT_GT(avg, prev);
    prev = avg;
  }
}

TEST(CacheGraph, SingleLayerIsSingleChoice) {
  // One layer = single hash: two objects colliding on a node share its capacity.
  CacheGraph g(64, {8}, 7);
  const std::vector<double> uniform(64, 1.0 / 64.0);
  const double r = g.MaxSupportedRate(uniform, 1.0, 0.01);
  // Max-loaded node has ≥ 8 objects hashed in expectation + imbalance, so the
  // supportable rate is well below the 8-node aggregate.
  EXPECT_LT(r, 7.0);
}

TEST(CacheGraph, ExpansionHoldsForSmallLoad) {
  // k = m/2 objects on 2m nodes: expansion holds w.h.p.
  int holds = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    holds += CacheGraph(8, {8, 8}, seed).HasExpansionProperty() ? 1 : 0;
  }
  EXPECT_GE(holds, 9);
}

TEST(CacheGraph, SingleHashExpansionOftenFails) {
  // With one hash and k = m objects, some node gets ≥ 2 objects w.h.p. (birthday),
  // and any 2 objects on one node violate |Γ(S)| ≥ |S|.
  int fails = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    fails += CacheGraph(8, {8}, seed).HasExpansionProperty() ? 0 : 1;
  }
  EXPECT_GE(fails, 8);
}

TEST(CacheGraph, RhoMaxBelowOneWhenFeasible) {
  CacheGraph g(16, {4, 4}, 6);
  const std::vector<double> rates(16, 0.2);  // total 3.2 vs 8 capacity
  ASSERT_TRUE(g.FeasibleMatching(rates, {1.0, 1.0}));
  EXPECT_LT(g.RhoMax(rates, 1.0), 1.0);
}

TEST(CacheGraph, RhoMaxAboveOneWhenInfeasible) {
  CacheGraph g(16, {4, 4}, 7);
  const std::vector<double> rates(16, 0.8);  // total 12.8 > 8 capacity
  ASSERT_FALSE(g.FeasibleMatching(rates, {1.0, 1.0}));
  EXPECT_GT(g.RhoMax(rates, 1.0), 1.0);
}

// Property cross-check of the appendix's equivalence: feasible matching ⟺ ρ_max < 1
// (Lemma 2 uses feasibility ⇒ ρ_max < 1; the converse holds by max-flow/min-cut).
class RhoFeasibilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RhoFeasibilityTest, FlowFeasibilityMatchesRho) {
  const uint64_t seed = GetParam();
  CacheGraph g(24, {6, 6}, seed);
  ZipfDistribution dist(24, 0.95);
  for (double scale : {2.0, 5.0, 8.0, 11.0, 14.0}) {
    std::vector<double> rates(24);
    for (uint64_t i = 0; i < 24; ++i) {
      rates[i] = scale * dist.Pmf(i);
    }
    const bool feasible = g.FeasibleMatching(rates, {1.0, 1.0});
    const double rho = g.RhoMax(rates, 1.0);
    if (feasible) {
      EXPECT_LE(rho, 1.0 + 1e-6) << "scale=" << scale;
    } else {
      EXPECT_GT(rho, 1.0 - 1e-6) << "scale=" << scale;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RhoFeasibilityTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// A graph the analysis cannot take aborts with a message in every build mode.
TEST(CacheGraphDeathTest, RejectsAnEmptyLayerListOrLayer) {
  EXPECT_DEATH(CacheGraph(8, {}, 1), "no cache layers");
  EXPECT_DEATH(CacheGraph(8, {4, 0}, 1), "layer 1 has no nodes");
}

TEST(CacheGraphDeathTest, RejectsRatesOfTheWrongSize) {
  const CacheGraph g(4, {2, 2}, 1);
  EXPECT_DEATH(g.FeasibleMatching({1.0, 1.0}, {1.0, 1.0}), "rates has 2 entries, want 4");
  EXPECT_DEATH(g.FeasibleMatching(std::vector<double>(4, 0.1), {1.0}),
               "layer_capacity has 1 entries, want 2");
  EXPECT_DEATH(g.MaxSupportedRate({0.5, 0.5}, 1.0), "pmf has 2 entries, want 4");
  EXPECT_DEATH(g.RhoMax(std::vector<double>(5, 0.1), 1.0), "rates has 5 entries, want 4");
}

TEST(CacheGraphDeathTest, RejectsAnExpansionCheckPastItsLimits) {
  EXPECT_DEATH(CacheGraph(21, {8, 8}, 1).HasExpansionProperty(),
               "limited to 20 objects and 64 nodes, got 21 objects");
  EXPECT_DEATH(CacheGraph(4, {40, 40}, 1).HasExpansionProperty(),
               "limited to 20 objects and 64 nodes, got 4 objects and 80 nodes");
}

TEST(CacheGraphDeathTest, RejectsRhoMaxPastTwentyFourNodes) {
  const CacheGraph g(4, {16, 9}, 1);
  EXPECT_DEATH(g.RhoMax(std::vector<double>(4, 0.1), 1.0),
               "limited to 24 cache nodes, got 25");
}

}  // namespace
}  // namespace distcache
