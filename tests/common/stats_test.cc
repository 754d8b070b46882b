#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"

namespace distcache {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, CvOfConstantIsZero) {
  StreamingStats s;
  s.Add(3.0);
  s.Add(3.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(ImbalanceFactor, BalancedIsOne) {
  EXPECT_DOUBLE_EQ(ImbalanceFactor({3.0, 3.0, 3.0}), 1.0);
}

TEST(ImbalanceFactor, SkewedExceedsOne) {
  EXPECT_DOUBLE_EQ(ImbalanceFactor({0.0, 0.0, 6.0}), 3.0);
}

TEST(ImbalanceFactor, EmptyIsOne) { EXPECT_DOUBLE_EQ(ImbalanceFactor({}), 1.0); }

// Bucket edges grow by 2^(1/16) ≈ 4.4%, so a bucket midpoint can be off the
// true order statistic by at most half a bucket on each side: 5% relative
// tolerance covers it with margin.
void ExpectWithinBucketResolution(double got, double want) {
  EXPECT_NEAR(got, want, 0.05 * want + 1e-9);
}

TEST(LatencyHistogram, PercentileTracksSortedSamples) {
  Rng rng(7);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = 0.4 + rng.NextExponential(0.5);
    samples.push_back(v);
    h.Add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {50.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<size_t>(p / 100.0 *
                                          static_cast<double>(samples.size() - 1));
    ExpectWithinBucketResolution(h.Percentile(p), samples[rank]);
  }
  EXPECT_EQ(h.total(), 20000u);
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  EXPECT_NEAR(h.mean(), sum / 20000.0, 1e-9);
}

TEST(LatencyHistogram, MergeIsAssociativeAndBucketExact) {
  Rng rng(11);
  LatencyHistogram parts[3];
  LatencyHistogram all;
  for (int part = 0; part < 3; ++part) {
    for (int i = 0; i < 1000 * (part + 1); ++i) {
      const double v = rng.NextExponential(0.1 * (part + 1));
      parts[part].Add(v);
      all.Add(v);
    }
  }
  parts[2].AddInfinite(5);
  all.AddInfinite(5);
  // (a ⊕ b) ⊕ c vs a ⊕ (b ⊕ c): bucket-for-bucket equality, not just summary
  // agreement — the property the sharded engine's quota-end merge relies on.
  LatencyHistogram left = parts[0];
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  LatencyHistogram right_tail = parts[1];
  right_tail.Merge(parts[2]);
  LatencyHistogram right = parts[0];
  right.Merge(right_tail);
  EXPECT_EQ(left.counts(), right.counts());
  EXPECT_EQ(left.total(), right.total());
  EXPECT_EQ(left.infinite(), right.infinite());
  // And both equal the histogram built from the concatenated stream.
  EXPECT_EQ(left.counts(), all.counts());
  EXPECT_EQ(left.total(), all.total());
  EXPECT_EQ(left.infinite(), all.infinite());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram h;
  h.Add(1.5, 10);
  const std::vector<uint64_t> before = h.counts();
  LatencyHistogram empty;
  h.Merge(empty);
  EXPECT_EQ(h.counts(), before);
  EXPECT_EQ(h.total(), 10u);
  LatencyHistogram other;
  other.Merge(h);
  EXPECT_EQ(other.counts(), before);
}

TEST(LatencyHistogram, DeltaSinceIsTheIntervalSlice) {
  Rng rng(13);
  LatencyHistogram h;
  for (int i = 0; i < 500; ++i) {
    h.Add(rng.NextExponential(1.0));
  }
  const LatencyHistogram mark = h;
  for (int i = 0; i < 300; ++i) {
    h.Add(10.0 + rng.NextExponential(1.0));
  }
  h.AddInfinite(2);
  const LatencyHistogram delta = h.DeltaSince(mark);
  EXPECT_EQ(delta.total(), 302u);
  EXPECT_EQ(delta.infinite(), 2u);
  // Slice ⊕ mark reassembles the cumulative histogram bucket-for-bucket.
  LatencyHistogram rebuilt = mark;
  rebuilt.Merge(delta);
  EXPECT_EQ(rebuilt.counts(), h.counts());
  EXPECT_EQ(rebuilt.total(), h.total());
  // The interval's own median reflects only the second batch.
  EXPECT_GT(delta.Percentile(50.0), 9.0);
}

TEST(LatencyHistogram, InfiniteMassDrivesTailPercentiles) {
  LatencyHistogram h;
  h.Add(1.0, 98);
  h.AddInfinite(2);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_DOUBLE_EQ(h.infinite_fraction(), 0.02);
  EXPECT_TRUE(std::isfinite(h.Percentile(50.0)));
  EXPECT_TRUE(std::isinf(h.Percentile(99.9)));
  // Mean covers the finite mass only.
  EXPECT_NEAR(h.mean(), 1.0, 0.05);
}

TEST(LatencyHistogram, EmptyBehaves) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Percentile(99.0), 0.0);
  const LatencyHistogram delta = h.DeltaSince(h);
  EXPECT_TRUE(delta.empty());
}

}  // namespace
}  // namespace distcache
