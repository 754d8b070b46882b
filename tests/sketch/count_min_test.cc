#include "sketch/count_min.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
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

// A sketch needs at least one row (zero rows estimate every key as UINT32_MAX),
// and its rows are evaluated in one pass of at most kMaxRows hashes.
TEST(CountMinSketchDeathTest, RejectsZeroOrTooManyRows) {
  for (size_t bad : {size_t{0}, CountMinSketch::kMaxRows + 1}) {
    CountMinSketch::Config cfg = SmallConfig();
    cfg.rows = bad;
    EXPECT_DEATH(CountMinSketch{cfg}, "rows, want 1..") << bad;
  }
  CountMinSketch::Config most = SmallConfig();
  most.rows = CountMinSketch::kMaxRows;
  CountMinSketch accepted(most);
}

// Per-row reference: one separately seeded TabulationHash and one counter row
// per sketch row, updated row by row. The sketch, which evaluates its rows in
// one interleaved pass, must agree on every Update and every Estimate.
class RowByRowSketch {
 public:
  explicit RowByRowSketch(const CountMinSketch::Config& cfg) : cfg_(cfg) {
    for (size_t r = 0; r < cfg.rows; ++r) {
      hashes_.emplace_back(HashCombine(cfg.seed, Mix64(r + 1)));
      rows_.emplace_back(cfg.width, 0);
    }
  }
  uint32_t Update(uint64_t key) {
    uint32_t estimate = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < cfg_.rows; ++r) {
      uint32_t& cell = rows_[r][hashes_[r](key) & (cfg_.width - 1)];
      cell = std::min(cell + 1, cfg_.counter_max);
      estimate = std::min(estimate, cell);
    }
    return estimate;
  }
  uint32_t Estimate(uint64_t key) const {
    uint32_t estimate = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < cfg_.rows; ++r) {
      estimate = std::min(estimate, rows_[r][hashes_[r](key) & (cfg_.width - 1)]);
    }
    return estimate;
  }

 private:
  CountMinSketch::Config cfg_;
  std::vector<TabulationHash> hashes_;
  std::vector<std::vector<uint32_t>> rows_;
};

TEST(CountMinSketchDifferential, MatchesARowByRowReference) {
  for (const size_t rows : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(rows);
    CountMinSketch::Config cfg = SmallConfig();
    cfg.rows = rows;
    cfg.counter_max = 255;  // saturation is part of the contract
    CountMinSketch cm(cfg);
    RowByRowSketch ref(cfg);
    Rng rng(rows);
    // The paper shape gets the full 10^6-key stream, the others 10^5.
    const int keys = rows == 4 ? 1000000 : 100000;
    size_t mismatches = 0;
    for (int i = 0; i < keys; ++i) {
      // Half the stream from 512 hot keys (so counters saturate), half cold.
      const uint64_t key = i % 2 == 0 ? rng.NextBounded(512) : rng.Next();
      mismatches += cm.Update(key) != ref.Update(key);
      const uint64_t probe = rng.NextBounded(4096);
      mismatches += cm.Estimate(probe) != ref.Estimate(probe);
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

}  // namespace
}  // namespace distcache
