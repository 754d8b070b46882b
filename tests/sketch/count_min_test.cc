#include "sketch/count_min.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"

namespace distcache {
namespace {

CountMinSketch::Config SmallConfig() {
  CountMinSketch::Config cfg;
  cfg.rows = 4;
  cfg.width = 1024;
  return cfg;
}

TEST(CountMinSketch, ColdKeyEstimatesZero) {
  CountMinSketch cm(SmallConfig());
  EXPECT_EQ(cm.Estimate(42), 0u);
}

TEST(CountMinSketch, CountsSingleKeyExactly) {
  CountMinSketch cm(SmallConfig());
  for (int i = 0; i < 57; ++i) {
    cm.Update(7);
  }
  EXPECT_EQ(cm.Estimate(7), 57u);
}

TEST(CountMinSketch, UpdateReturnsRunningEstimate) {
  CountMinSketch cm(SmallConfig());
  EXPECT_EQ(cm.Update(3), 1u);
  EXPECT_EQ(cm.Update(3), 2u);
}

TEST(CountMinSketch, NeverUnderestimates) {
  CountMinSketch cm(SmallConfig());
  Rng rng(17);
  std::unordered_map<uint64_t, uint32_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(5000);
    ++truth[key];
    cm.Update(key);
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cm.Estimate(key), count);
  }
}

TEST(CountMinSketch, OverestimateIsBoundedOnAverage) {
  CountMinSketch cm(SmallConfig());
  Rng rng(18);
  std::unordered_map<uint64_t, uint32_t> truth;
  constexpr int kUpdates = 10000;
  for (int i = 0; i < kUpdates; ++i) {
    const uint64_t key = rng.NextBounded(2000);
    ++truth[key];
    cm.Update(key);
  }
  // Standard CM bound: error ≤ e·N/width with prob 1-e^-rows; check the average.
  double total_error = 0.0;
  for (const auto& [key, count] : truth) {
    total_error += cm.Estimate(key) - count;
  }
  EXPECT_LT(total_error / truth.size(), 3.0 * kUpdates / 1024.0 + 1.0);
}

TEST(CountMinSketch, ResetClears) {
  CountMinSketch cm(SmallConfig());
  cm.Update(5);
  cm.Reset();
  EXPECT_EQ(cm.Estimate(5), 0u);
}

TEST(CountMinSketch, CountersSaturateAtRegisterWidth) {
  CountMinSketch::Config cfg = SmallConfig();
  cfg.counter_max = 10;  // pretend 4-bit-ish registers
  CountMinSketch cm(cfg);
  for (int i = 0; i < 100; ++i) {
    cm.Update(9);
  }
  EXPECT_EQ(cm.Estimate(9), 10u);
}

TEST(CountMinSketch, PaperConfigMemoryBits) {
  CountMinSketch::Config cfg;  // paper defaults: 4 x 64K x 16-bit
  CountMinSketch cm(cfg);
  EXPECT_EQ(cm.MemoryBits(), 4u * 65536u * 16u);
  EXPECT_EQ(cm.rows(), 4u);
  EXPECT_EQ(cm.width(), 65536u);
}

// Slots are the row hash masked to the width, so only power-of-two widths
// are accepted; anything else aborts at construction.
TEST(CountMinSketchDeathTest, RejectsNonPowerOfTwoWidth) {
  for (size_t bad : {size_t{0}, size_t{3}, size_t{1000}}) {
    CountMinSketch::Config cfg = SmallConfig();
    cfg.width = bad;
    EXPECT_DEATH(CountMinSketch{cfg}, "not a power of two") << bad;
  }
  CountMinSketch::Config one = SmallConfig();
  one.width = 1;
  CountMinSketch accepted(one);  // 2^0 is a valid (degenerate) width
}

}  // namespace
}  // namespace distcache
