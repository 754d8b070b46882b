// Shard-runtime scaling tests on the thread launcher (sim/multiproc_backend.h):
//
//  * Single-shard golden parity — a one-shard sharded run exchanges no
//    messages, so it is exactly deterministic. The constants below were
//    captured from an early build (per-request owner-split sink, batch size
//    64) and have survived every transport rebuild since: each must be a
//    strict behavioral no-op for the simulated cluster, every counter exact and
//    every double bit-for-bit (loads are sums of exactly-representable costs).
//    The configs pin both a static run and the full failure+shift+realloc
//    timeline.
//  * Multi-shard parity — hit ratio, load imbalance and drop counters must
//    agree across 1, 2 and 4 shards on the full timeline within statistical
//    tolerance (multi-shard runs are scheduling-dependent through telemetry
//    arrival timing, so exact pins are impossible by design).
//  * Transport accounting — telemetry rides the SPSC rings, and the
//    batch-boundary drains that applied a slot never outnumber the ring
//    messages.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/sim_backend.h"

namespace distcache {
namespace {

// Mirrors the layer_test.cc golden cluster (8 spines, 8 racks, 4 servers/rack,
// 1M keys, zipf 0.99, 20% writes, seed 42).
ClusterConfig GoldenCluster() {
  ClusterConfig cfg;
  cfg.num_spine = 8;
  cfg.num_racks = 8;
  cfg.servers_per_rack = 4;
  cfg.per_switch_objects = 50;
  cfg.num_keys = 1'000'000;
  cfg.zipf_theta = 0.99;
  cfg.write_ratio = 0.2;
  cfg.seed = 42;
  return cfg;
}

SimBackendConfig GoldenBackendConfig(uint32_t shards) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.shards = shards;
  // The pre-refactor default. Batch size changes the RNG draw interleaving
  // (buckets are sampled batch-at-a-time), so the bit-level pins are only
  // valid at the batch size they were captured under.
  bcfg.batch_size = 64;
  return bcfg;
}

// The §4.4 + §6.4 composite: failure, recovery remap, hot-spot shift, online
// re-allocation from observed counts, switch restoration.
std::vector<ClusterEvent> FullTimeline() {
  return {ClusterEvent::FailSpine(40'000, 2), ClusterEvent::RunRecovery(60'000),
          ClusterEvent::ShiftHotspot(90'000, 12'345),
          ClusterEvent::ReallocateCache(120'000),
          ClusterEvent::RecoverSpine(150'000, 2)};
}

struct LoadSummary {
  double sum = 0.0;
  double max = 0.0;
};

LoadSummary Summarize(const std::vector<double>& loads) {
  LoadSummary s;
  for (double x : loads) {
    s.sum += x;
    s.max = std::max(s.max, x);
  }
  return s;
}

// Captured from the pre-refactor build: sharded engine, 1 shard, batch 64,
// 200k requests on GoldenCluster(), empty timeline.
TEST(ShardedGolden, SingleShardStaticRunMatchesPreRefactorBuild) {
  const BackendStats st =
      MakeSimBackend(BackendKind::kSharded, GoldenBackendConfig(1))->Run(200'000);

  EXPECT_EQ(st.reads, 159921u);
  EXPECT_EQ(st.writes, 40079u);
  EXPECT_EQ(st.cache_hits, 70684u);
  EXPECT_EQ(st.spine_hits, 37907u);
  EXPECT_EQ(st.leaf_hits, 32777u);
  EXPECT_EQ(st.server_reads, 89237u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.4419932341593662);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.6847555511301404);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 2.463468562519127);
  const LoadSummary spine = Summarize(st.spine_load());
  const LoadSummary leaf = Summarize(st.leaf_load());
  const LoadSummary server = Summarize(st.server_load);
  EXPECT_DOUBLE_EQ(spine.sum, 72909.0);
  EXPECT_DOUBLE_EQ(spine.max, 14805.0);
  EXPECT_DOUBLE_EQ(leaf.sum, 67693.0);
  EXPECT_DOUBLE_EQ(leaf.max, 14805.0);
  EXPECT_DOUBLE_EQ(server.sum, 138055.75);
  EXPECT_DOUBLE_EQ(server.max, 10628.0);
  // One shard: nothing to send, nothing contended.
  EXPECT_EQ(st.ring_messages, 0u);
  EXPECT_EQ(st.contended_receives, 0u);
}

// The policy layer's dispatch byte must be invisible on the sharded hot path
// too: an explicit default policy reproduces the pre-refactor pins bit-for-bit.
TEST(ShardedGolden, ExplicitDistCachePolicyKeepsPreRefactorGolden) {
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.cluster.cache_policy = CachePolicyKind::kDistCache;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 159921u);
  EXPECT_EQ(st.writes, 40079u);
  EXPECT_EQ(st.cache_hits, 70684u);
  EXPECT_EQ(st.spine_hits, 37907u);
  EXPECT_EQ(st.leaf_hits, 32777u);
  EXPECT_EQ(st.server_reads, 89237u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.4419932341593662);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.6847555511301404);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 2.463468562519127);
}

// Same capture discipline on the full failure+shift+realloc timeline (the
// batched hot path must also be a no-op across failure windows, where it runs
// the per-request RNG interleaving).
TEST(ShardedGolden, SingleShardTimelineRunMatchesPreRefactorBuild) {
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 159917u);
  EXPECT_EQ(st.writes, 40083u);
  EXPECT_EQ(st.cache_hits, 59286u);
  EXPECT_EQ(st.spine_hits, 28850u);
  EXPECT_EQ(st.leaf_hits, 30436u);
  EXPECT_EQ(st.server_reads, 98995u);
  EXPECT_EQ(st.dropped, 2148u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.37072981609209776);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.285477107402653);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 1.7278636677037489);
  const LoadSummary spine = Summarize(st.spine_load());
  const LoadSummary leaf = Summarize(st.leaf_load());
  const LoadSummary server = Summarize(st.server_load);
  EXPECT_DOUBLE_EQ(spine.sum, 57452.0);
  EXPECT_DOUBLE_EQ(spine.max, 9387.0);
  EXPECT_DOUBLE_EQ(leaf.sum, 59398.0);
  EXPECT_DOUBLE_EQ(leaf.max, 9388.0);
  EXPECT_DOUBLE_EQ(server.sum, 145761.5);
  EXPECT_DOUBLE_EQ(server.max, 7870.5);
}

// Shard-count parity on the full timeline: the transport must not change what
// the cluster *does* — hit ratio, drop share and balance are shard-count
// invariants (within the statistical tolerance scheduling skew allows).
TEST(ShardedScaling, TimelineStatsParityAcross124Shards) {
  constexpr uint64_t kRequests = 400'000;
  std::vector<BackendStats> runs;
  for (uint32_t shards : {1u, 2u, 4u}) {
    SimBackendConfig bcfg = GoldenBackendConfig(shards);
    bcfg.events = FullTimeline();
    runs.push_back(MakeSimBackend(BackendKind::kSharded, bcfg)->Run(kRequests));
  }
  const BackendStats& ref = runs.front();
  ASSERT_GT(ref.hit_ratio(), 0.2);
  ASSERT_GT(ref.dropped, 0u);
  for (size_t i = 1; i < runs.size(); ++i) {
    const BackendStats& st = runs[i];
    EXPECT_EQ(st.requests, kRequests);
    EXPECT_NEAR(st.hit_ratio(), ref.hit_ratio(), 0.02) << "shards run " << i;
    EXPECT_NEAR(st.CacheImbalance(), ref.CacheImbalance(),
                0.12 * ref.CacheImbalance())
        << "shards run " << i;
    // Drops come from the blackhole window. Whether a given request is exposed
    // to it depends on PoT choices, which depend on telemetry arrival timing —
    // so multi-shard drop counts carry scheduling noise on top of the stream
    // split. 15% still catches the structural failures (drops doubling,
    // vanishing, or all landing on one shard).
    const double drop_ref = static_cast<double>(ref.dropped);
    EXPECT_NEAR(static_cast<double>(st.dropped), drop_ref, 0.15 * drop_ref)
        << "shards run " << i;
  }
}

// Transport accounting: telemetry rides the rings, and a batch-boundary drain
// that applied a slot applied at least one of the ring messages.
TEST(ShardedScaling, DataPlaneRidesTheRings) {
  SimBackendConfig bcfg = GoldenBackendConfig(4);
  bcfg.epoch_requests = 4'096;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(400'000);

  EXPECT_EQ(st.requests, 400'000u);
  // Telemetry epochs: each of the 4 shards broadcasts to 3 peers roughly every
  // 4096 local requests.
  EXPECT_GT(st.ring_messages, 100u);
  // The batch-boundary drain must resolve lock-free when idle: one drain per
  // batch minimum, most of them uncontended.
  EXPECT_GT(st.uncontended_receives, 400'000u / 256u / 2u);
  EXPECT_LE(st.contended_receives, st.ring_messages);
}

}  // namespace
}  // namespace distcache
