#include "sketch/bloom_filter.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/hash.h"
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

// A filter needs at least one hash (zero hashes make every key look present),
// and its hashes are evaluated in one pass of at most kMaxHashes.
TEST(BloomFilterDeathTest, RejectsZeroOrTooManyHashes) {
  for (size_t bad : {size_t{0}, BloomFilter::kMaxHashes + 1}) {
    BloomFilter::Config cfg = SmallConfig();
    cfg.hashes = bad;
    EXPECT_DEATH(BloomFilter{cfg}, "hashes, want 1..") << bad;
  }
  BloomFilter::Config most = SmallConfig();
  most.hashes = BloomFilter::kMaxHashes;
  BloomFilter accepted(most);
}

// Per-row reference: one separately seeded TabulationHash and one bit array
// per hash. The filter, which evaluates its hashes in one interleaved pass,
// must give the same InsertAndTest and MayContain answers on every key.
TEST(BloomFilterDifferential, MatchesARowByRowReference) {
  for (const size_t hashes : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(hashes);
    BloomFilter::Config cfg = SmallConfig();
    cfg.hashes = hashes;
    BloomFilter bf(cfg);
    std::vector<TabulationHash> row_hash;
    std::vector<std::vector<bool>> row_bits;
    for (size_t r = 0; r < hashes; ++r) {
      row_hash.emplace_back(HashCombine(cfg.seed, Mix64(r + 1)));
      row_bits.emplace_back(cfg.bits, false);
    }
    const auto slot = [&](size_t r, uint64_t key) {
      return static_cast<size_t>(row_hash[r](key) & (cfg.bits - 1));
    };
    Rng rng(hashes);
    // The paper shape gets the full 10^6-key stream, the others 10^5.
    const int keys = hashes == 3 ? 1000000 : 100000;
    size_t mismatches = 0;
    for (int i = 0; i < keys; ++i) {
      const uint64_t key = rng.NextBounded(1u << 16);  // repeats: both answers occur
      bool present = true;
      for (size_t r = 0; r < hashes; ++r) {
        present = present && row_bits[r][slot(r, key)];
        row_bits[r][slot(r, key)] = true;
      }
      mismatches += bf.InsertAndTest(key) != present;
      const uint64_t probe = rng.Next();
      bool may = true;
      for (size_t r = 0; r < hashes; ++r) {
        may = may && row_bits[r][slot(r, probe)];
      }
      mismatches += bf.MayContain(probe) != may;
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

}  // namespace
}  // namespace distcache
