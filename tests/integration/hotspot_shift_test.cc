// Integration test for the hot-spot-shift / online-reallocation loop (§6.4) at
// the cluster-engine level, on the phased workload timeline: the hot set rotates
// onto cold keys (hit ratio collapses), the controller re-allocates the cache
// from observed heavy-hitter counts (sketch → merge → refill → route push), and
// the hit ratio recovers — in all three engines, with request-level parity.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/sim_backend.h"

namespace distcache {
namespace {

constexpr uint64_t kRequests = 400'000;
constexpr uint64_t kShiftAt = kRequests * 4 / 10;
constexpr uint64_t kReallocAt = kRequests * 6 / 10;

SimBackendConfig ShiftConfig() {
  SimBackendConfig cfg;
  cfg.cluster.mechanism = Mechanism::kDistCache;
  cfg.cluster.num_spine = 8;
  cfg.cluster.num_racks = 8;
  cfg.cluster.servers_per_rack = 4;
  cfg.cluster.per_switch_objects = 50;
  cfg.cluster.num_keys = 1'000'000;
  cfg.cluster.zipf_theta = 0.99;
  cfg.cluster.seed = 7;
  cfg.sample_interval = kRequests / 10;
  cfg.events = {ClusterEvent::ShiftHotspot(kShiftAt, cfg.cluster.num_keys / 2),
                ClusterEvent::ReallocateCache(kReallocAt)};
  return cfg;
}

double RelDiff(double a, double b) {
  return b == 0.0 ? std::abs(a) : std::abs(a - b) / std::abs(b);
}

// The paper's trajectory, request-level: healthy hit ratio, collapse when the
// hot set moves onto uncached keys, recovery to within 2% of the pre-shift value
// once the controller re-allocates from observed counts.
TEST(HotspotShift, SequentialDipsThenRecoversWithin2Percent) {
  const SimBackendConfig cfg = ShiftConfig();
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  ASSERT_EQ(st.series.size(), 10u);
  const double pre = st.series[3].hit_ratio();
  const double dip = st.series[5].hit_ratio();
  const double recovered = st.series.back().hit_ratio();
  EXPECT_GT(pre, 0.3);  // warm cache before the shift
  EXPECT_LT(dip, 0.1 * pre);  // the cached set is cold for the shifted hot set
  EXPECT_GT(recovered, 0.98 * pre);  // re-allocation restores the hit ratio
  EXPECT_LT(recovered, 1.02 * pre);
}

// Acceptance: sharded-vs-sequential parity within 1% on hit ratio and cache
// imbalance under a hot-spot-shift timeline (both engines drive the same shared
// request core; the sharded re-allocation merges per-shard observed counts at
// the controller rendezvous).
TEST(HotspotShift, ShardedParityWithSequentialWithin1Percent) {
  SimBackendConfig cfg = ShiftConfig();
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(shard.hit_ratio(), seq.hit_ratio()), 0.01)
      << "sharded " << shard.hit_ratio() << " vs sequential " << seq.hit_ratio();
  EXPECT_LT(RelDiff(shard.CacheImbalance(), seq.CacheImbalance()), 0.01)
      << "sharded " << shard.CacheImbalance() << " vs sequential "
      << seq.CacheImbalance();
  // And the sharded trajectory recovers like the reference.
  ASSERT_EQ(shard.series.size(), 10u);
  EXPECT_GT(shard.series.back().hit_ratio(),
            0.98 * shard.series[3].hit_ratio());
}

// The fluid engine consumes the same timeline analytically: exact collapse (the
// reachable cached mass of the shifted hot set is ~0) and exact recovery (the
// analytic re-allocation refills with the true hot set).
TEST(HotspotShift, FluidTrajectoryBracketsTheRequestEngines) {
  const SimBackendConfig cfg = ShiftConfig();
  const BackendStats fluid =
      MakeSimBackend(BackendKind::kFluid, cfg)->Run(kRequests);
  ASSERT_EQ(fluid.series.size(), 10u);  // timeline lands on the sampling grid
  const double pre = fluid.series[3].hit_ratio();
  EXPECT_GT(pre, 0.3);
  EXPECT_LT(fluid.series[5].hit_ratio(), 0.05 * pre);
  EXPECT_NEAR(fluid.series.back().hit_ratio(), pre, 0.02 * pre);
  // Request-level engines converge to the fluid hit ratio on the healthy prefix.
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(seq.series[3].hit_ratio(), pre), 0.03);
}

// A shift without re-allocation stays collapsed: the controller reaction — not
// time — is what restores the hit ratio.
TEST(HotspotShift, NoReallocationNoRecovery) {
  SimBackendConfig cfg = ShiftConfig();
  cfg.events = {ClusterEvent::ShiftHotspot(kShiftAt, cfg.cluster.num_keys / 2)};
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  ASSERT_EQ(st.series.size(), 10u);
  EXPECT_LT(st.series.back().hit_ratio(), 0.1 * st.series[3].hit_ratio());
}

// Failure events *after* a re-allocation must route the refilled cached set:
// the re-allocation rebuilds the remaining timeline's route snapshots (and the
// sharded controller multicasts them with the kRouteUpdate), so a switch
// restoration does not resurrect the pre-shift allocation. Regression guard:
// the construction-time kRecoverSpine snapshot used to collapse the hit ratio
// back to ~0 for the rest of the run.
TEST(HotspotShift, RecoveryAfterReallocationKeepsRefilledCache) {
  SimBackendConfig cfg = ShiftConfig();
  cfg.events = {ClusterEvent::FailSpine(kRequests / 10, 0),
                ClusterEvent::ShiftHotspot(kShiftAt, cfg.cluster.num_keys / 2),
                ClusterEvent::ReallocateCache(kReallocAt),
                ClusterEvent::RunRecovery(kReallocAt),  // ends transit blackhole
                ClusterEvent::RecoverSpine(kRequests * 8 / 10, 0)};
  for (const BackendKind kind :
       {BackendKind::kSequential, BackendKind::kSharded}) {
    SimBackendConfig run_cfg = cfg;
    run_cfg.shards = kind == BackendKind::kSharded ? 2 : 1;
    const BackendStats st = MakeSimBackend(kind, run_cfg)->Run(kRequests);
    ASSERT_EQ(st.series.size(), 10u);
    const double recovered = st.series[7].hit_ratio();  // post-realloc, spine 0 down
    EXPECT_GT(recovered, 0.25) << "engine " << static_cast<int>(kind);
    // After the switch restoration the refilled cache must persist.
    EXPECT_GT(st.series[9].hit_ratio(), 0.9 * recovered)
        << "engine " << static_cast<int>(kind);
  }
}

// Re-allocation must not resurrect dead routing state: total charged load stays
// conserved across the whole timeline (read-only workload ⇒ one unit per read).
TEST(HotspotShift, LoadConservationAcrossShiftAndRealloc) {
  const SimBackendConfig cfg = ShiftConfig();
  for (const BackendKind kind :
       {BackendKind::kSequential, BackendKind::kSharded}) {
    SimBackendConfig run_cfg = cfg;
    run_cfg.shards = kind == BackendKind::kSharded ? 4 : 1;
    const BackendStats st = MakeSimBackend(kind, run_cfg)->Run(kRequests);
    double total = 0.0;
    for (const auto& layer : st.cache_load) {
      for (double x : layer) total += x;
    }
    for (double x : st.server_load) total += x;
    EXPECT_NEAR(total, static_cast<double>(kRequests), 1e-6);
  }
}

}  // namespace
}  // namespace distcache
