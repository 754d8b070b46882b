#include "core/load_tracker.h"

#include <gtest/gtest.h>

#include <cmath>

namespace distcache {
namespace {

LoadTracker::Config SmallConfig() { return LoadTracker::Config{{4, 4}}; }

TEST(LoadTracker, StartsAtZero) {
  LoadTracker t(SmallConfig());
  EXPECT_EQ(t.Load({0, 2}), 0.0);
  EXPECT_EQ(t.Load({1, 3}), 0.0);
}

TEST(LoadTracker, SetStoresPerLayer) {
  LoadTracker t(SmallConfig());
  t.Set({0, 1}, 100);
  t.Set({1, 1}, 50);
  EXPECT_EQ(t.Load({0, 1}), 100.0);
  EXPECT_EQ(t.Load({1, 1}), 50.0);
  t.Set({0, 1}, 60);  // a refresh replaces the entry
  EXPECT_EQ(t.Load({0, 1}), 60.0);
}

TEST(LoadTracker, OutOfRangeSetIgnored) {
  LoadTracker t(SmallConfig());
  t.Set({0, 99}, 7);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.Load({0, i}), 0.0);
  }
}

TEST(LoadTracker, VectorsExposeLayers) {
  LoadTracker t(SmallConfig());
  t.Set({0, 3}, 5);
  EXPECT_EQ(t.spine_loads()[3], 5.0);
  EXPECT_EQ(t.leaf_loads()[3], 0.0);
}

// Dead-node aging (§4.4): a failed switch's entry must lose every PoT comparison
// instead of freezing at a stale — eventually minimal — value (invariant 3).
TEST(LoadTracker, MarkDeadPinsLoadToInfinity) {
  LoadTracker t(SmallConfig());
  t.Set({0, 1}, 40);
  t.MarkDead({0, 1});
  EXPECT_TRUE(t.IsDead({0, 1}));
  EXPECT_TRUE(std::isinf(t.Load({0, 1})));
  t.MarkDead({0, 1});  // idempotent: the shadow must not absorb the +inf
  t.MarkAlive({0, 1});
  EXPECT_FALSE(t.IsDead({0, 1}));
  EXPECT_EQ(t.Load({0, 1}), 40.0);
}

TEST(LoadTracker, DeadNodeAbsorbsTelemetryIntoShadow) {
  LoadTracker t(SmallConfig());
  t.Set({1, 2}, 10);
  t.MarkDead({1, 2});
  // Late telemetry / gossip folds keep updating the hidden estimate...
  t.Add({1, 2}, 5.0);
  t.Set({1, 2}, 25.0);
  EXPECT_TRUE(std::isinf(t.Load({1, 2})));  // ...without unpinning the entry.
  t.MarkAlive({1, 2});
  EXPECT_EQ(t.Load({1, 2}), 25.0);
}

}  // namespace
}  // namespace distcache
