#include "cache/cache_switch.h"

#include <gtest/gtest.h>

namespace distcache {
namespace {

CacheSwitch MakeSwitch(size_t stages = 8, size_t slots = 64) {
  CacheSwitch::Config cfg;
  cfg.num_stages = stages;
  cfg.slots_per_stage = slots;
  cfg.hh.sketch.width = 1024;
  cfg.hh.bloom.bits = 4096;
  return CacheSwitch(cfg);
}

TEST(CacheSwitch, MissOnEmptyCache) {
  CacheSwitch sw = MakeSwitch();
  std::string value;
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kMiss);
}

TEST(CacheSwitch, InsertInvalidThenUpdateMakesHit) {
  CacheSwitch sw = MakeSwitch();
  ASSERT_TRUE(sw.InsertInvalid(1, 16).ok());
  std::string value;
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kInvalid);
  ASSERT_TRUE(sw.UpdateValue(1, "abc").ok());
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kHit);
  EXPECT_EQ(value, "abc");
}

TEST(CacheSwitch, DoubleInsertIsAlreadyExists) {
  CacheSwitch sw = MakeSwitch();
  ASSERT_TRUE(sw.InsertInvalid(1, 16).ok());
  EXPECT_EQ(sw.InsertInvalid(1, 16).code(), StatusCode::kAlreadyExists);
}

TEST(CacheSwitch, InvalidateBlocksHitsUntilUpdate) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(1, 16).ok();
  sw.UpdateValue(1, "v1").ok();
  ASSERT_TRUE(sw.Invalidate(1).ok());
  std::string value;
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kInvalid);
  sw.UpdateValue(1, "v2").ok();
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kHit);
  EXPECT_EQ(value, "v2");
}

TEST(CacheSwitch, InvalidateMissingIsNotFound) {
  CacheSwitch sw = MakeSwitch();
  EXPECT_EQ(sw.Invalidate(9).code(), StatusCode::kNotFound);
  EXPECT_EQ(sw.UpdateValue(9, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(sw.Evict(9).code(), StatusCode::kNotFound);
}

TEST(CacheSwitch, HitsBumpTelemetryAndCounters) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(1, 16).ok();
  sw.UpdateValue(1, "v").ok();
  std::string value;
  for (int i = 0; i < 5; ++i) {
    sw.Lookup(1, &value);
  }
  EXPECT_EQ(sw.TelemetryLoad(), 5u);
  EXPECT_EQ(sw.HitCount(1), 5u);
}

TEST(CacheSwitch, InvalidLookupsDoNotBumpTelemetry) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(1, 16).ok();
  std::string value;
  sw.Lookup(1, &value);
  EXPECT_EQ(sw.TelemetryLoad(), 0u);
}

TEST(CacheSwitch, AddTelemetryLoadForCoherence) {
  CacheSwitch sw = MakeSwitch();
  sw.AddTelemetryLoad(7);
  EXPECT_EQ(sw.TelemetryLoad(), 7u);
}

TEST(CacheSwitch, NewEpochResetsTelemetryAndHitCounters) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(1, 16).ok();
  sw.UpdateValue(1, "v").ok();
  std::string value;
  sw.Lookup(1, &value);
  sw.NewEpoch();
  EXPECT_EQ(sw.TelemetryLoad(), 0u);
  EXPECT_EQ(sw.HitCount(1), 0u);
  EXPECT_TRUE(sw.Contains(1));  // contents survive epochs
}

TEST(CacheSwitch, SlotAccountingPerValueSize) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(1, 16).ok();  // 1 slot
  EXPECT_EQ(sw.slots_used(), 1u);
  sw.InsertInvalid(2, 128).ok();  // 8 slots
  EXPECT_EQ(sw.slots_used(), 9u);
  sw.Evict(2).ok();
  EXPECT_EQ(sw.slots_used(), 1u);
}

TEST(CacheSwitch, UpdateValueResizesSlots) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(1, 16).ok();
  sw.UpdateValue(1, std::string(100, 'x')).ok();  // 7 slots
  EXPECT_EQ(sw.slots_used(), 7u);
  sw.UpdateValue(1, "short").ok();  // back to 1 slot
  EXPECT_EQ(sw.slots_used(), 1u);
}

TEST(CacheSwitch, RejectsWhenSlotsExhausted) {
  CacheSwitch sw = MakeSwitch(/*stages=*/1, /*slots=*/2);
  ASSERT_TRUE(sw.InsertInvalid(1, 16).ok());
  ASSERT_TRUE(sw.InsertInvalid(2, 16).ok());
  EXPECT_EQ(sw.InsertInvalid(3, 16).code(), StatusCode::kResourceExhausted);
}

TEST(CacheSwitch, RejectsOversizedValue) {
  CacheSwitch sw = MakeSwitch();
  EXPECT_EQ(sw.InsertInvalid(1, 129).code(), StatusCode::kInvalidArgument);
}

// Coherence phase 2 must not install a value the primary's 128-byte cap rejects.
TEST(CacheSwitch, UpdateValueRejectsOversizedValue) {
  CacheSwitch sw = MakeSwitch();
  ASSERT_TRUE(sw.InsertInvalid(1, 16).ok());
  ASSERT_TRUE(sw.UpdateValue(1, "old").ok());
  EXPECT_EQ(sw.UpdateValue(1, std::string(129, 'x')).code(), StatusCode::kInvalidArgument);
  std::string value;
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kHit);
  EXPECT_EQ(value, "old");
  EXPECT_EQ(sw.slots_used(), 1u);
  EXPECT_TRUE(sw.UpdateValue(1, std::string(128, 'x')).ok());  // the cap itself fits
}

TEST(CacheSwitch, ColdestKeyTracksHits) {
  CacheSwitch sw = MakeSwitch();
  for (uint64_t k : {1, 2, 3}) {
    sw.InsertInvalid(k, 16).ok();
    sw.UpdateValue(k, "v").ok();
  }
  std::string value;
  sw.Lookup(1, &value);
  sw.Lookup(1, &value);
  sw.Lookup(2, &value);
  const auto coldest = sw.ColdestKey();
  ASSERT_TRUE(coldest.has_value());
  EXPECT_EQ(*coldest, 3u);
}

TEST(CacheSwitch, ColdestKeyEmptyCache) {
  CacheSwitch sw = MakeSwitch();
  EXPECT_FALSE(sw.ColdestKey().has_value());
}

TEST(CacheSwitch, CachedKeysEnumerates) {
  CacheSwitch sw = MakeSwitch();
  sw.InsertInvalid(5, 16).ok();
  sw.InsertInvalid(7, 16).ok();
  auto keys = sw.CachedKeys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<uint64_t>{5, 7}));
}

TEST(CacheSwitch, IsValidReflectsState) {
  CacheSwitch sw = MakeSwitch();
  EXPECT_FALSE(sw.IsValid(1));
  sw.InsertInvalid(1, 16).ok();
  EXPECT_FALSE(sw.IsValid(1));
  sw.UpdateValue(1, "v").ok();
  EXPECT_TRUE(sw.IsValid(1));
}

}  // namespace
}  // namespace distcache
