#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/workload.h"
#include "common/zipf.h"

namespace distcache {
namespace {

TEST(DiscreteDistribution, NormalizesPmf) {
  DiscreteDistribution d({2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(d.Pmf(0), 0.25);
  EXPECT_DOUBLE_EQ(d.Pmf(2), 0.5);
  EXPECT_DOUBLE_EQ(d.Pmf(3), 0.0);
  EXPECT_EQ(d.num_keys(), 3u);
}

TEST(DiscreteDistribution, TopMassIsCdf) {
  DiscreteDistribution d({1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.TopMass(0), 0.0);
  EXPECT_DOUBLE_EQ(d.TopMass(1), 0.25);
  EXPECT_DOUBLE_EQ(d.TopMass(2), 0.5);
  EXPECT_DOUBLE_EQ(d.TopMass(3), 1.0);
  EXPECT_DOUBLE_EQ(d.TopMass(99), 1.0);
}

TEST(DiscreteDistribution, SamplesFollowPmf) {
  DiscreteDistribution d({0.7, 0.2, 0.1});
  Rng rng(5);
  int counts[3] = {};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[d.Sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kSamples), 0.1, 0.02);
}

TEST(DiscreteDistribution, ZeroMassKeysNeverSampled) {
  DiscreteDistribution d({1.0, 0.0, 1.0});
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_NE(d.Sample(rng), 1u);
  }
}

TEST(DiscreteDistribution, AllZeroPmfFallsBackToUniform) {
  // Regression: the all-zero pmf used to keep pmf_ at zero while the cdf rounding
  // guard set cdf_.back() = 1.0 — dumping 100% of the sampled mass on the last key.
  DiscreteDistribution d({0.0, 0.0, 0.0, 0.0});
  for (uint64_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(d.Pmf(k), 0.25);
  }
  Rng rng(17);
  int counts[4] = {};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t key = d.Sample(rng);
    ASSERT_LT(key, 4u);
    ++counts[key];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(kSamples), 0.25, 0.02);
  }
}

TEST(DiscreteDistributionDeathTest, RejectsNegativeOrNonFiniteWeights) {
  // The guide table is exact only over a monotone CDF, so every weight must be
  // finite and non-negative.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(DiscreteDistribution({1.0, -0.5, 1.0}), "weight 1 is -0.5");
  EXPECT_DEATH(DiscreteDistribution({1.0, std::nan("")}), "weight 1 is .*nan");
  EXPECT_DEATH(DiscreteDistribution({kInf, 1.0}), "weight 0 is inf");
  EXPECT_DEATH(DiscreteDistribution({1.0, 1.0, -kInf}), "weight 2 is -inf");
}

// Guide cells M for n buckets: the largest power of two ≤ max(1, n/2), capped at
// 2^16. Restated here so the boundary points below probe the real cutpoints.
size_t GuideCells(size_t n) {
  return std::min<size_t>(std::bit_floor(std::max<size_t>(1, n / 2)), size_t{1} << 16);
}

// The reference inverse: std::lower_bound over the CDF rebuilt from TopMass.
struct ReferenceInverse {
  std::vector<double> cdf;

  explicit ReferenceInverse(const DiscreteDistribution& d) {
    for (uint64_t k = 1; k <= d.num_keys(); ++k) {
      cdf.push_back(d.TopMass(k));
    }
  }
  uint64_t operator()(double u) const {
    return static_cast<uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin());
  }
};

// Checks InverseCdf against the reference at every guide boundary j/M, every CDF
// value and its nextafter neighbours, 0, 1 − 2^-53 and 10^6 random u.
void ExpectMatchesLowerBound(const std::vector<double>& pmf) {
  const DiscreteDistribution d(pmf);
  const ReferenceInverse ref(d);
  const size_t n = pmf.size();
  const double last = 1.0 - 0x1.0p-53;
  std::vector<double> points = {0.0, last};
  const size_t cells = GuideCells(n);
  for (size_t j = 0; j < cells; ++j) {
    points.push_back(static_cast<double>(j) / static_cast<double>(cells));
  }
  for (double c : ref.cdf) {
    for (double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 1.0)}) {
      if (u >= 0.0 && u <= last) {
        points.push_back(u);
      }
    }
  }
  size_t mismatches = 0;
  for (double u : points) {
    if (d.InverseCdf(u) != ref(u) && ++mismatches <= 5) {
      ADD_FAILURE() << "n=" << n << " u=" << u << ": " << d.InverseCdf(u)
                    << " vs lower_bound " << ref(u);
    }
  }
  Rng rng(n);
  for (int i = 0; i < 1'000'000; ++i) {
    const double u = rng.NextDouble();
    if (d.InverseCdf(u) != ref(u) && ++mismatches <= 5) {
      ADD_FAILURE() << "n=" << n << " u=" << u << ": " << d.InverseCdf(u)
                    << " vs lower_bound " << ref(u);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "n=" << n;
}

// The sequential engine's own pmf: the 51,200-rank candidate pool of a 100M-key
// Zipf-0.99 workload plus one aggregated tail bucket.
std::vector<double> EngineHeadWithTail() {
  const ZipfDistribution zipf(100'000'000, 0.99);
  PopularityVector pv = BuildPopularityVector(zipf, 51'200);
  pv.head.push_back(pv.tail_mass);
  return pv.head;
}

TEST(DiscreteDistribution, InverseCdfMatchesLowerBoundOnEngineHeadTail) {
  const std::vector<double> pmf = EngineHeadWithTail();
  ASSERT_EQ(pmf.size(), 51'201u);
  ExpectMatchesLowerBound(pmf);
}

TEST(DiscreteDistribution, InverseCdfMatchesLowerBoundOnZeroMassRuns) {
  std::vector<double> pmf(1000, 1.0);
  std::fill(pmf.begin(), pmf.begin() + 100, 0.0);   // start
  std::fill(pmf.begin() + 400, pmf.begin() + 600, 0.0);  // middle
  std::fill(pmf.end() - 150, pmf.end(), 0.0);       // end
  ExpectMatchesLowerBound(pmf);
  // One isolated zero between each pair of keys as well.
  ExpectMatchesLowerBound({0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0});
}

TEST(DiscreteDistribution, InverseCdfMatchesLowerBoundOnDyadicCdf) {
  // Every CDF value lands exactly on a guide boundary.
  ExpectMatchesLowerBound({0.25, 0.25, 0.0, 0.5});
  ExpectMatchesLowerBound({0.125, 0.125, 0.25, 0.0, 0.0, 0.5});
}

TEST(DiscreteDistribution, InverseCdfMatchesLowerBoundOnAllZeroFallback) {
  ExpectMatchesLowerBound({0.0, 0.0, 0.0, 0.0, 0.0});
}

TEST(DiscreteDistribution, InverseCdfMatchesLowerBoundOnTinyPmfs) {
  for (size_t n = 1; n <= 5; ++n) {
    std::vector<double> pmf;
    for (size_t i = 0; i < n; ++i) {
      pmf.push_back(static_cast<double>(i + 1));
    }
    ExpectMatchesLowerBound(pmf);
  }
}

TEST(DiscreteDistribution, InverseCdfMatchesLowerBoundAtGuideCap) {
  // n = 2^17 + 1 reaches the 2^16-cell cap; n = 2^18 + 3 is past it (M stays 2^16
  // while n/2 keeps growing).
  for (size_t n : {(size_t{1} << 17) + 1, (size_t{1} << 18) + 3}) {
    std::vector<double> pmf(n);
    for (size_t i = 0; i < n; ++i) {
      pmf[i] = std::pow(static_cast<double>(i + 1), -0.99);
    }
    ExpectMatchesLowerBound(pmf);
  }
}

TEST(DiscreteDistribution, SampleMatchesLowerBoundOnSameSeed) {
  const DiscreteDistribution d(EngineHeadWithTail(), "head+tail");
  const ReferenceInverse ref(d);
  Rng rng(2026);
  Rng clone = rng;
  for (int i = 0; i < 1'000'000; ++i) {
    ASSERT_EQ(d.Sample(rng), ref(clone.NextDouble())) << "draw " << i;
  }
}

TEST(DiscreteDistribution, BytesCountGuideTable) {
  // 51,201 buckets → M = 16,384 guide cells (M + 1 32-bit cutpoints, 64 KiB).
  std::vector<double> pmf = EngineHeadWithTail();
  pmf.shrink_to_fit();
  const DiscreteDistribution d(pmf);
  EXPECT_EQ(d.bytes(), 2 * pmf.size() * sizeof(double) + (16'384 + 1) * sizeof(uint32_t));
  EXPECT_EQ(DiscreteDistribution({1.0}).bytes(), 2 * sizeof(double) + 2 * sizeof(uint32_t));
}

TEST(CappedZipfPmf, RespectsCap) {
  const auto pmf = CappedZipfPmf(100, 0.99, 0.02);
  double sum = 0.0;
  for (double p : pmf) {
    EXPECT_LE(p, 0.02 * (1.0 + 1e-9));
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(CappedZipfPmf, UnbindingCapReturnsZipf) {
  const auto pmf = CappedZipfPmf(100, 0.9, 1.0);
  ZipfDistribution zipf(100, 0.9);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(pmf[i], zipf.Pmf(i), 1e-12);
  }
}

TEST(CappedZipfPmf, ClippedMassGoesToTail) {
  const auto raw = CappedZipfPmf(1000, 0.99, 1.0);
  const auto capped = CappedZipfPmf(1000, 0.99, 0.005);
  EXPECT_LT(capped[0], raw[0]);
  EXPECT_GT(capped[999], raw[999]);  // tail inflated by renormalization
}

TEST(CappedZipfPmf, HeadIsFlatAtCap) {
  const auto pmf = CappedZipfPmf(1000, 0.99, 0.01);
  // The hottest keys all sit exactly at the cap.
  EXPECT_NEAR(pmf[0], 0.01, 1e-9);
  EXPECT_NEAR(pmf[1], 0.01, 1e-9);
  EXPECT_LT(pmf[999], 0.01);
}

TEST(CappedZipfPmf, InfeasibleCapReturnsUniform) {
  // cap < 1/num_keys is unsatisfiable (a pmf over n keys cannot be everywhere
  // below 1/n); the clip-and-renormalize loop used to run its 64 rounds and
  // silently return a cap-violating pmf. The closest satisfiable pmf is uniform.
  const auto pmf = CappedZipfPmf(100, 0.99, 0.001);
  double sum = 0.0;
  for (double p : pmf) {
    EXPECT_DOUBLE_EQ(p, 0.01);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The boundary cap == 1/n is exactly feasible, and only by the uniform pmf.
  const auto boundary = CappedZipfPmf(100, 0.99, 0.01);
  for (double p : boundary) {
    EXPECT_DOUBLE_EQ(p, 0.01);
  }
}

}  // namespace
}  // namespace distcache
