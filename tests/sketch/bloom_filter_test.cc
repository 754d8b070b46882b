#include "sketch/bloom_filter.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace distcache {
namespace {

BloomFilter::Config SmallConfig() {
  BloomFilter::Config cfg;
  cfg.hashes = 3;
  cfg.bits = 8192;
  return cfg;
}

TEST(BloomFilter, EmptyContainsNothing) {
  BloomFilter bf(SmallConfig());
  EXPECT_FALSE(bf.MayContain(1));
  EXPECT_FALSE(bf.MayContain(999));
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(SmallConfig());
  for (uint64_t k = 0; k < 500; ++k) {
    bf.Insert(k);
  }
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_TRUE(bf.MayContain(k)) << k;
  }
}

TEST(BloomFilter, InsertAndTestReportsFirstInsertion) {
  BloomFilter bf(SmallConfig());
  EXPECT_FALSE(bf.InsertAndTest(77));
  EXPECT_TRUE(bf.InsertAndTest(77));
}

TEST(BloomFilter, FalsePositiveRateIsLow) {
  BloomFilter bf(SmallConfig());
  for (uint64_t k = 0; k < 1000; ++k) {
    bf.Insert(k);
  }
  int false_positives = 0;
  constexpr int kProbes = 10000;
  for (uint64_t k = 100000; k < 100000 + kProbes; ++k) {
    false_positives += bf.MayContain(k) ? 1 : 0;
  }
  // k=3 hashes, m=8192 bits/array, n=1000: per-array load 1000/8192; fp ~ (n/m)^... be generous.
  EXPECT_LT(false_positives, kProbes / 10);
}

TEST(BloomFilter, ResetClears) {
  BloomFilter bf(SmallConfig());
  bf.Insert(42);
  bf.Reset();
  EXPECT_FALSE(bf.MayContain(42));
}

TEST(BloomFilter, PaperConfigMemoryBits) {
  BloomFilter bf(BloomFilter::Config{});  // paper: 3 arrays x 256K 1-bit
  EXPECT_EQ(bf.MemoryBits(), 3u * 262144u);
}

// Slots are the row hash masked to the width, so only power-of-two widths
// are accepted; anything else aborts at construction.
TEST(BloomFilterDeathTest, RejectsNonPowerOfTwoWidth) {
  for (size_t bad : {size_t{0}, size_t{3}, size_t{3000}}) {
    BloomFilter::Config cfg = SmallConfig();
    cfg.bits = bad;
    EXPECT_DEATH(BloomFilter{cfg}, "not a power of two") << bad;
  }
  BloomFilter::Config one = SmallConfig();
  one.bits = 1;
  BloomFilter accepted(one);  // 2^0 is a valid (degenerate) width
}

}  // namespace
}  // namespace distcache
