#include "cluster/latency.h"

#include <gtest/gtest.h>

#include <cmath>

namespace distcache {
namespace {

ClusterConfig Cfg(Mechanism m) {
  ClusterConfig cfg;
  cfg.mechanism = m;
  cfg.num_spine = 16;
  cfg.num_racks = 16;
  cfg.servers_per_rack = 8;
  cfg.per_switch_objects = 20;
  cfg.num_keys = 1'000'000;
  cfg.zipf_theta = 0.99;
  return cfg;
}

TEST(Latency, PercentilesAreOrdered) {
  ClusterSim sim(Cfg(Mechanism::kDistCache));
  const LatencyReport r = ComputeLatencyReport(sim, 0.3 * sim.TotalServerCapacity());
  EXPECT_GT(r.p50, 0.0);
  EXPECT_LE(r.p50, r.p95);
  EXPECT_LE(r.p95, r.p99);
  EXPECT_GT(r.mean, 0.0);
}

TEST(Latency, LatencyGrowsWithLoad) {
  ClusterSim sim(Cfg(Mechanism::kDistCache));
  const double cap = sim.TotalServerCapacity();
  const LatencyReport light = ComputeLatencyReport(sim, 0.1 * cap);
  const LatencyReport heavy = ComputeLatencyReport(sim, 0.8 * cap);
  EXPECT_GE(heavy.mean, light.mean);
  EXPECT_GE(heavy.p99, light.p99);
}

TEST(Latency, NoCacheTailExplodesEarly) {
  ClusterSim none(Cfg(Mechanism::kNoCache));
  ClusterSim dist(Cfg(Mechanism::kDistCache));
  const double rate = 0.3 * none.TotalServerCapacity();
  const LatencyReport rn = ComputeLatencyReport(none, rate);
  const LatencyReport rd = ComputeLatencyReport(dist, rate);
  EXPECT_GT(rn.p99, 10.0 * rd.p99);  // the hot server is saturated without caching
  EXPECT_GT(rn.overloaded_fraction, 0.0);
  EXPECT_EQ(rd.overloaded_fraction, 0.0);
}

TEST(Latency, CacheHitsReduceMedian) {
  ClusterSim none(Cfg(Mechanism::kNoCache));
  ClusterSim dist(Cfg(Mechanism::kDistCache));
  const double rate = 0.2 * none.TotalServerCapacity();
  // Cache hits skip the server sojourn; with ~half the mass cached the median
  // must not be worse.
  EXPECT_LE(ComputeLatencyReport(dist, rate).p50,
            ComputeLatencyReport(none, rate).p50 + 1e-9);
}

TEST(Latency, HitFractionMatchesCacheSize) {
  ClusterSim sim(Cfg(Mechanism::kDistCache));
  const LatencyReport r = ComputeLatencyReport(sim, 0.3 * sim.TotalServerCapacity());
  EXPECT_GT(r.hit_fraction, 0.3);
  EXPECT_LT(r.hit_fraction, 0.9);
  ClusterSim none(Cfg(Mechanism::kNoCache));
  EXPECT_EQ(ComputeLatencyReport(none, 1.0).hit_fraction, 0.0);
}

// After a hot-spot shift, popularity rank r reads key KeyOfRank(r): the hit
// mass is that of the ranks whose shifted key is cached, not of the ranks that
// were cached before the shift. A shift of 100 keeps part of the hot head on
// cached keys, so the expected mass is neither zero nor the unshifted one.
TEST(Latency, HitFractionFollowsTheHotShift) {
  ClusterSim sim(Cfg(Mechanism::kDistCache));
  const double rate = 0.3 * sim.TotalServerCapacity();
  const double unshifted = ComputeLatencyReport(sim, rate).hit_fraction;
  sim.SetHotShift(100);
  const PopularityVector& pop = sim.popularity();
  double hit = 0.0;
  double total = 0.0;
  for (uint64_t rank = 0; rank < pop.head.size(); ++rank) {
    if (pop.head[rank] <= 0.0) {
      continue;
    }
    total += pop.head[rank];
    if (sim.allocation().CopiesOf(sim.KeyOfRank(rank)).cached()) {
      hit += pop.head[rank];
    }
  }
  total += pop.tail_mass;
  ASSERT_GT(hit, 0.0);
  ASSERT_LT(hit / total, unshifted);
  EXPECT_DOUBLE_EQ(ComputeLatencyReport(sim, rate).hit_fraction, hit / total);
}

// Saturated mass is explicit overload accounting, not a finite pseudo-latency:
// a percentile rank inside it reads +infinity, the fraction carries the mass,
// and the mean covers the finite queries only.
TEST(Latency, SaturatedMassReportsInfinity) {
  ClusterSim none(Cfg(Mechanism::kNoCache));
  const LatencyReport r =
      ComputeLatencyReport(none, 0.3 * none.TotalServerCapacity());
  EXPECT_GT(r.overloaded_fraction, 0.01);
  EXPECT_TRUE(std::isinf(r.p99));
  EXPECT_TRUE(std::isfinite(r.p50));
  EXPECT_TRUE(std::isfinite(r.mean));
  EXPECT_GT(r.mean, 0.0);
}

// The open-loop analytic fill integrates the same mixture the report
// summarizes: totals land on the requested sample count (up to per-bucket
// rounding) and the distribution's mean matches the report's finite-mass mean.
TEST(Latency, AnalyticFillMatchesReportMean) {
  ClusterSim sim(Cfg(Mechanism::kDistCache));
  const double rate = 0.3 * sim.TotalServerCapacity();
  const LatencyReport report = ComputeLatencyReport(sim, rate);
  LatencyHistogram hist;
  constexpr uint64_t kSamples = 1'000'000;
  FillAnalyticLatency(sim, rate, {sim.layer_capacity(0), sim.layer_capacity(1)},
                      sim.config().server_capacity, /*hop_cost=*/0.2, kSamples,
                      &hist);
  EXPECT_NEAR(static_cast<double>(hist.total()), static_cast<double>(kSamples),
              1000.0);
  EXPECT_NEAR(hist.mean(), report.mean, 0.05 * report.mean);
  EXPECT_DOUBLE_EQ(hist.infinite_fraction(), 0.0);
}

TEST(Latency, NetworkRttIsFloor) {
  ClusterSim sim(Cfg(Mechanism::kDistCache));
  LatencyModelOptions options;
  options.network_rtt = 5.0;
  const LatencyReport r =
      ComputeLatencyReport(sim, 0.05 * sim.TotalServerCapacity(), options);
  EXPECT_GE(r.p50, 5.0);
}

}  // namespace
}  // namespace distcache
