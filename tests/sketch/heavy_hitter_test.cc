#include "sketch/heavy_hitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace distcache {
namespace {

HeavyHitterDetector::Config SmallConfig(uint32_t threshold = 32) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.rows = 4;
  cfg.sketch.width = 4096;
  cfg.bloom.hashes = 3;
  cfg.bloom.bits = 16384;
  cfg.report_threshold = threshold;
  return cfg;
}

TEST(HeavyHitterDetector, ColdKeysNotReported) {
  HeavyHitterDetector hh(SmallConfig());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(hh.Record(k));
  }
  EXPECT_TRUE(hh.TopReports().empty());
}

TEST(HeavyHitterDetector, HotKeyReportedOnceAtThreshold) {
  HeavyHitterDetector hh(SmallConfig(10));
  int reports = 0;
  for (int i = 0; i < 100; ++i) {
    reports += hh.Record(7) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);  // bloom filter suppresses duplicates within the epoch
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 7u);
  EXPECT_GE(top[0].second, 100u);
}

TEST(HeavyHitterDetector, ReportsRankedByCount) {
  HeavyHitterDetector hh(SmallConfig(5));
  for (int i = 0; i < 50; ++i) {
    hh.Record(1);
  }
  for (int i = 0; i < 20; ++i) {
    hh.Record(2);
  }
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[1].first, 2u);
}

TEST(HeavyHitterDetector, NewEpochClearsState) {
  HeavyHitterDetector hh(SmallConfig(5));
  for (int i = 0; i < 10; ++i) {
    hh.Record(3);
  }
  hh.NewEpoch();
  EXPECT_TRUE(hh.TopReports().empty());
  EXPECT_EQ(hh.Estimate(3), 0u);
  // Reportable again in the new epoch.
  int reports = 0;
  for (int i = 0; i < 10; ++i) {
    reports += hh.Record(3) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);
}

TEST(HeavyHitterDetector, FindsZipfHeadUnderRealisticTraffic) {
  HeavyHitterDetector hh(SmallConfig(64));
  ZipfDistribution dist(100000, 0.99);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    hh.Record(dist.Sample(rng));
  }
  const auto top = hh.TopReports();
  ASSERT_GE(top.size(), 5u);
  // The hottest object must be among the first few reports.
  bool found_rank0 = false;
  for (size_t i = 0; i < 3 && i < top.size(); ++i) {
    found_rank0 |= top[i].first == 0;
  }
  EXPECT_TRUE(found_rank0);
}

TEST(HeavyHitterDetector, ReportCapIsEnforced) {
  HeavyHitterDetector::Config cfg = SmallConfig(1);
  cfg.max_reports_per_epoch = 8;
  HeavyHitterDetector hh(cfg);
  for (uint64_t k = 0; k < 100; ++k) {
    hh.Record(k);
  }
  EXPECT_LE(hh.TopReports().size(), 8u);
}

TEST(HeavyHitterDetector, MemoryBitsCombineSketchAndBloom) {
  HeavyHitterDetector hh(SmallConfig());
  EXPECT_EQ(hh.MemoryBits(), 4u * 4096u * 16u + 3u * 16384u);
}

// Reference detector: the same sketch and Bloom filter with the report list in
// a std::unordered_map, sorted on the same total order.
class RefDetector {
 public:
  explicit RefDetector(const HeavyHitterDetector::Config& config)
      : config_(config), sketch_(config.sketch), bloom_(config.bloom) {}

  bool Record(uint64_t key) {
    const uint32_t estimate = sketch_.Update(key);
    if (estimate < config_.report_threshold) {
      return false;
    }
    if (reports_.size() >= config_.max_reports_per_epoch && !reports_.contains(key)) {
      return false;
    }
    const bool already_reported = bloom_.InsertAndTest(key);
    reports_[key] = estimate;
    return !already_reported;
  }
  std::vector<std::pair<uint64_t, uint32_t>> TopReports() const {
    std::vector<std::pair<uint64_t, uint32_t>> out(reports_.begin(), reports_.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    return out;
  }
  void NewEpoch() {
    sketch_.Reset();
    bloom_.Reset();
    reports_.clear();
  }

 private:
  HeavyHitterDetector::Config config_;
  CountMinSketch sketch_;
  BloomFilter bloom_;
  std::unordered_map<uint64_t, uint32_t> reports_;
};

// Replays a Zipf stream through both detectors for three epochs, comparing
// every Record() and the ranked reports; returns the largest report count seen.
size_t RunDetectorDifferential(const HeavyHitterDetector::Config& cfg, uint64_t seed) {
  size_t peak = 0;
  HeavyHitterDetector hh(cfg);
  RefDetector ref(cfg);
  ZipfDistribution dist(200000, 0.99);
  Rng rng(seed);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 40000; ++i) {
      const uint64_t key = dist.Sample(rng);
      EXPECT_EQ(hh.Record(key), ref.Record(key)) << "epoch " << epoch << " i " << i;
      if (i % 10000 == 9999) {
        const auto top = hh.TopReports();
        EXPECT_EQ(top, ref.TopReports()) << "epoch " << epoch << " i " << i;
        peak = std::max(peak, top.size());
      }
    }
    hh.NewEpoch();
    ref.NewEpoch();
    EXPECT_TRUE(hh.TopReports().empty());
  }
  return peak;
}

TEST(HeavyHitterDifferential, TopReportsMatchUnorderedMapReference) {
  HeavyHitterDetector::Config cfg = SmallConfig(2);
  cfg.max_reports_per_epoch = 1u << 20;  // never binds: the table grows freely
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    EXPECT_GT(RunDetectorDifferential(cfg, seed), 1000u);
  }
}

// Observe() is Record() without the Bloom filter: on the same stream it
// reports the same keys, leaves the same reports and estimates, and its return
// says whether the key is in the report table.
TEST(HeavyHitterDetector, ObserveMatchesRecordWithoutTheBloomFilter) {
  for (size_t cap : {size_t{50}, size_t{1} << 20}) {
    SCOPED_TRACE(cap);
    HeavyHitterDetector::Config cfg = SmallConfig(3);
    cfg.max_reports_per_epoch = cap;
    HeavyHitterDetector observed(cfg);
    HeavyHitterDetector recorded(cfg);
    ZipfDistribution dist(200000, 0.99);
    Rng rng(cap);
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int i = 0; i < 30000; ++i) {
        const uint64_t key = dist.Sample(rng);
        const bool reported = observed.Observe(key);
        const bool first = recorded.Record(key);
        ASSERT_FALSE(first && !reported) << "first report of an unreported key";
        EXPECT_EQ(observed.Estimate(key), recorded.Estimate(key));
        if (i % 1000 == 0) {
          const auto top = observed.TopReports();
          const bool listed = std::any_of(top.begin(), top.end(),
                                          [&](const auto& r) { return r.first == key; });
          EXPECT_EQ(reported, listed) << "key " << key;
        }
      }
      EXPECT_EQ(observed.TopReports(), recorded.TopReports());
      EXPECT_EQ(observed.TopReports().size() == cap, cap == 50);
      observed.NewEpoch();
      recorded.NewEpoch();
    }
  }
}

// The controller merges every engine stream's report; with a single stream
// (the sequential engine) the merge must be the identity: same keys, same
// counts, same order — keys tied on count included.
TEST(HeavyHitterDetector, MergingOneReportIsTheIdentity) {
  HeavyHitterDetector hh(SmallConfig(2));
  ZipfDistribution dist(100000, 0.99);
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    hh.Record(dist.Sample(rng));
  }
  const auto top = hh.TopReports();
  ASSERT_GT(top.size(), 100u);
  size_t ties = 0;
  for (size_t i = 1; i < top.size(); ++i) {
    ties += top[i].second == top[i - 1].second ? 1 : 0;
  }
  ASSERT_GT(ties, 10u);  // the tie order is part of what is compared
  const auto merged = MergeHeavyHitterReports({top});
  ASSERT_EQ(merged.size(), top.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(merged[i].first, top[i].first) << "rank " << i;
    EXPECT_EQ(merged[i].second, top[i].second) << "rank " << i;
  }
}

TEST(HeavyHitterDifferential, TopReportsMatchWhenTheCapBinds) {
  for (size_t cap : {1, 7, 100, 3000}) {
    HeavyHitterDetector::Config cfg = SmallConfig(3);
    cfg.max_reports_per_epoch = cap;
    SCOPED_TRACE(cap);
    EXPECT_EQ(RunDetectorDifferential(cfg, 11), cap);
  }
}

}  // namespace
}  // namespace distcache
