#include "sim/sim_backend.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats_codec.h"

namespace distcache {
namespace {

SimBackendConfig SmallConfig() {
  SimBackendConfig cfg;
  cfg.cluster.mechanism = Mechanism::kDistCache;
  cfg.cluster.num_spine = 8;
  cfg.cluster.num_racks = 8;
  cfg.cluster.servers_per_rack = 4;
  cfg.cluster.per_switch_objects = 50;
  cfg.cluster.num_keys = 1'000'000;
  cfg.cluster.zipf_theta = 0.99;
  cfg.cluster.seed = 7;
  return cfg;
}

constexpr uint64_t kRequests = 400'000;

double RelDiff(double a, double b) {
  return b == 0.0 ? std::abs(a) : std::abs(a - b) / std::abs(b);
}

TEST(SequentialBackend, ExactlyDeterministicForSameSeed) {
  const SimBackendConfig cfg = SmallConfig();
  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.spine_hits, b.spine_hits);
  EXPECT_EQ(a.leaf_hits, b.leaf_hits);
  EXPECT_EQ(a.server_reads, b.server_reads);
  ASSERT_EQ(a.server_load.size(), b.server_load.size());
  for (size_t i = 0; i < a.server_load.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server_load[i], b.server_load[i]) << "server " << i;
  }
}

// The sequential engine keeps its client view equal to the true loads after
// every request (the sink's Set, MarkDead/MarkAlive through the shadow), so
// the telemetry epoch length — a shard-runtime knob — must not change its
// run. Pinned under both routing regimes (PoT over the view, and a dynamic
// write-back policy) with spines failing and recovering, a hot-spot shift, a
// realloc, 20% writes and open-loop arrivals.
TEST(SequentialBackend, EpochLengthDoesNotChangeTheRun) {
  for (const CachePolicyKind policy :
       {CachePolicyKind::kDistCache, CachePolicyKind::kLru}) {
    SimBackendConfig cfg = SmallConfig();
    cfg.cluster.write_ratio = 0.2;
    cfg.cluster.cache_policy = policy;
    if (policy == CachePolicyKind::kLru) {
      cfg.cluster.write_policy = WritePolicy::kWriteBack;
    }
    cfg.events = {ClusterEvent::FailSpine(40'000, 0),
                  ClusterEvent::FailSpine(40'000, 1),
                  ClusterEvent::RunRecovery(80'000),
                  ClusterEvent::ShiftHotspot(120'000, 12'345),
                  ClusterEvent::ReallocateCache(160'000),
                  ClusterEvent::RecoverSpine(200'000, 0),
                  ClusterEvent::RecoverSpine(200'000, 1)};
    cfg.sample_interval = 20'000;
    cfg.queue.arrival.rate = 24.0;
    cfg.epoch_requests = 0;
    const BackendStats ref =
        MakeSimBackend(BackendKind::kSequential, cfg)->Run(240'000);
    ASSERT_GT(ref.dropped, 0u);
    ASSERT_FALSE(ref.latency.empty());
    for (const uint64_t epoch : {1u, 7u, 4096u}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   ", epoch " + std::to_string(epoch));
      cfg.epoch_requests = epoch;
      const BackendStats st =
          MakeSimBackend(BackendKind::kSequential, cfg)->Run(240'000);
      EXPECT_EQ(DeterministicStatsDigest(st), DeterministicStatsDigest(ref));
      EXPECT_EQ(st.spine_hits, ref.spine_hits);
      EXPECT_EQ(st.leaf_hits, ref.leaf_hits);
      EXPECT_EQ(st.cache_load, ref.cache_load);  // element bit-exact
      EXPECT_EQ(st.server_load, ref.server_load);
      EXPECT_EQ(st.latency.counts(), ref.latency.counts());
      EXPECT_EQ(st.latency.infinite(), ref.latency.infinite());
      EXPECT_EQ(st.latency.finite_sum(), ref.latency.finite_sum());
      ASSERT_EQ(st.series.size(), ref.series.size());
      for (size_t i = 0; i < st.series.size(); ++i) {
        EXPECT_EQ(st.series[i].delivered, ref.series[i].delivered);
        EXPECT_EQ(st.series[i].latency.counts(), ref.series[i].latency.counts());
        EXPECT_EQ(st.series[i].latency.finite_sum(),
                  ref.series[i].latency.finite_sum());
      }
    }
  }
}

// The tentpole determinism criterion: the same seed must produce the same aggregate
// statistics whether the cluster is simulated on 1 shard or N shards — within
// statistical tolerance, since each shard samples its own request slice.
TEST(ShardedBackend, AggregateStatsMatchAcrossShardCounts) {
  SimBackendConfig cfg = SmallConfig();
  cfg.shards = 1;
  const BackendStats one =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  for (uint32_t shards : {2u, 4u}) {
    cfg.shards = shards;
    const BackendStats many =
        MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
    EXPECT_EQ(many.requests, kRequests);
    EXPECT_LT(RelDiff(many.hit_ratio(), one.hit_ratio()), 0.02)
        << shards << " shards: hit ratio " << many.hit_ratio() << " vs "
        << one.hit_ratio();
    EXPECT_LT(RelDiff(many.CacheImbalance(), one.CacheImbalance()), 0.05)
        << shards << " shards: cache imbalance " << many.CacheImbalance()
        << " vs " << one.CacheImbalance();
    EXPECT_LT(RelDiff(many.ServerImbalance(), one.ServerImbalance()), 0.05)
        << shards << " shards: server imbalance " << many.ServerImbalance()
        << " vs " << one.ServerImbalance();
  }
}

// The sharded runtime must reproduce the sequential reference's statistics: same
// hit ratio and load shape, within the tolerance the acceptance criteria demand.
TEST(ShardedBackend, MatchesSequentialReference) {
  SimBackendConfig cfg = SmallConfig();
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(shard.hit_ratio(), seq.hit_ratio()), 0.05);
  EXPECT_LT(RelDiff(shard.CacheImbalance(), seq.CacheImbalance()), 0.05);
  EXPECT_LT(RelDiff(shard.ServerImbalance(), seq.ServerImbalance()), 0.05);
  // Total charged load must be conserved: every read costs exactly one unit
  // somewhere (read-only workload).
  double seq_total = 0.0;
  double shard_total = 0.0;
  for (const auto* v : {&seq.spine_load(), &seq.leaf_load(), &seq.server_load}) {
    for (double x : *v) seq_total += x;
  }
  for (const auto* v : {&shard.spine_load(), &shard.leaf_load(), &shard.server_load}) {
    for (double x : *v) shard_total += x;
  }
  EXPECT_NEAR(seq_total, static_cast<double>(kRequests), 1e-6);
  EXPECT_NEAR(shard_total, static_cast<double>(kRequests), 1e-6);
}

// Request-level hit ratios must converge to the fluid model's analytic cached mass.
TEST(Backends, HitRatioMatchesFluidAnalytic) {
  SimBackendConfig cfg = SmallConfig();
  const BackendStats fluid =
      MakeSimBackend(BackendKind::kFluid, cfg)->Run(kRequests);
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(seq.hit_ratio(), fluid.hit_ratio()), 0.02)
      << "sequential " << seq.hit_ratio() << " vs fluid " << fluid.hit_ratio();
}

// Writes charge coherence costs: with a write ratio the cache layers absorb
// coherence_switch_cost per cached copy and servers pay the two-phase overhead.
TEST(Backends, WriteCoherenceCostsMatchBetweenEngines) {
  SimBackendConfig cfg = SmallConfig();
  cfg.cluster.write_ratio = 0.2;
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_GT(seq.writes, kRequests / 10);
  EXPECT_LT(RelDiff(static_cast<double>(shard.writes), static_cast<double>(seq.writes)),
            0.05);
  double seq_total = 0.0;
  double shard_total = 0.0;
  for (const auto* v : {&seq.spine_load(), &seq.leaf_load(), &seq.server_load}) {
    for (double x : *v) seq_total += x;
  }
  for (const auto* v : {&shard.spine_load(), &shard.leaf_load(), &shard.server_load}) {
    for (double x : *v) shard_total += x;
  }
  EXPECT_LT(RelDiff(shard_total, seq_total), 0.05);
}

TEST(ShardedBackend, ShardCountDoesNotChangeRequestTotal) {
  SimBackendConfig cfg = SmallConfig();
  cfg.shards = 3;  // does not divide kRequests evenly
  const BackendStats st =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(100'001);
  EXPECT_EQ(st.requests, 100'001u);
  EXPECT_EQ(st.reads + st.writes, 100'001u);
}

}  // namespace
}  // namespace distcache
