// Multi-process backend tests (sim/multiproc_backend.h):
//
//  * x1 bit-identity — a one-process multiproc run exchanges no messages, so it
//    must reproduce the in-process sharded engine's golden pins bit for bit
//    (the same constants scaling_test.cc pins, static and full-timeline): the
//    substrate swap — fork, arena rings, stats codec — is a strict behavioral
//    no-op for the simulated cluster.
//  * multi-process parity — hit ratio, balance and drop counters agree across
//    1, 2 and 4 shard processes within the same statistical tolerance as the
//    in-process engine (telemetry arrival timing is scheduling-dependent by
//    design, now across processes).
//  * crash isolation — a shard process SIGKILLed mid-run must be detected by
//    the supervisor: the run returns (never hangs) with the survivors' partial
//    stats and failed_shards reporting the dead shard.
//  * launcher differential — threads and forks agree bit for bit on
//    deterministic runs (one shard; two shards under a dynamic policy or
//    static-topk's first-choice routing).
//  * static-topk equivalence — the static-topk policy and distcache with
//    first-choice routing give the same run on every engine, bit for bit.
//  * stats codec — the arena hand-off format round-trips BackendStats exactly,
//    doubles bit for bit, and rejects truncated buffers; Merge and the
//    determinism digest follow the counter field table, and the digest keeps
//    its pinned value.
//
// Everything that forks is skipped under TSan (TSan's runtime does not follow
// fork-without-exec children; the in-process engines keep TSan coverage of the
// shared ring/transport logic) and on hosts where the arena cannot be mapped.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "multiproc_runnable.h"
#include "sim/multiproc_backend.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace distcache {
namespace {

// The scaling_test.cc golden cluster (8 spines, 8 racks, 4 servers/rack, 1M
// keys, zipf 0.99, 20% writes, seed 42) and batch size — the bit-level pins
// are only valid at the batch size they were captured under.
SimBackendConfig GoldenBackendConfig(uint32_t shards) {
  SimBackendConfig bcfg;
  bcfg.cluster.num_spine = 8;
  bcfg.cluster.num_racks = 8;
  bcfg.cluster.servers_per_rack = 4;
  bcfg.cluster.per_switch_objects = 50;
  bcfg.cluster.num_keys = 1'000'000;
  bcfg.cluster.zipf_theta = 0.99;
  bcfg.cluster.write_ratio = 0.2;
  bcfg.cluster.seed = 42;
  bcfg.shards = shards;
  bcfg.batch_size = 64;
  return bcfg;
}

// A SIGKILL of `shard` once it has processed `local` requests of its quota:
// fault-plan timestamps use the global request clock, so at `shards` shards
// the event sits at local * shards.
void KillShardAt(SimBackendConfig* bcfg, uint32_t shard, uint64_t local) {
  bcfg->fault_plan.events.push_back(
      {FaultKind::kCrashKill, shard, local * bcfg->shards, 0});
}

std::vector<ClusterEvent> FullTimeline() {
  return {ClusterEvent::FailSpine(40'000, 2), ClusterEvent::RunRecovery(60'000),
          ClusterEvent::ShiftHotspot(90'000, 12'345),
          ClusterEvent::ReallocateCache(120'000),
          ClusterEvent::RecoverSpine(150'000, 2)};
}

// Two spine failures, recovery, a hot-spot shift, an observed-count
// re-allocation and restoration of both spines.
std::vector<ClusterEvent> TwoFailureTimeline() {
  return {ClusterEvent::FailSpine(20'000, 0), ClusterEvent::FailSpine(20'000, 1),
          ClusterEvent::RunRecovery(60'000),
          ClusterEvent::ShiftHotspot(80'000, 500'000),
          ClusterEvent::ReallocateCache(100'000),
          ClusterEvent::RecoverSpine(120'000, 0),
          ClusterEvent::RecoverSpine(120'000, 1)};
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

// The exact constants ShardedGolden.SingleShardStaticRunMatchesPreRefactorBuild
// pins for the in-process engine: one substrate's goldens are the other's.
TEST(MultiprocGolden, SingleProcessStaticRunMatchesShardedGolden) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, GoldenBackendConfig(1))
          ->Run(200'000);

  EXPECT_EQ(st.reads, 159921u);
  EXPECT_EQ(st.writes, 40079u);
  EXPECT_EQ(st.cache_hits, 70684u);
  EXPECT_EQ(st.spine_hits, 37907u);
  EXPECT_EQ(st.leaf_hits, 32777u);
  EXPECT_EQ(st.server_reads, 89237u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.failed_shards, 0u);
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
  // One process: nothing crosses the arena.
  EXPECT_EQ(st.ring_messages, 0u);
  EXPECT_EQ(st.contended_receives, 0u);
}

// And the full failure+shift+realloc timeline pins: the locally-queued
// timeline and the all-to-all realloc rendezvous must collapse, at one
// process, to exactly the in-process controller's computation.
TEST(MultiprocGolden, SingleProcessTimelineRunMatchesShardedGolden) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);

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
  // The series geometry survives the codec hand-off (200k / 40k intervals).
  EXPECT_EQ(st.series.size(), 5u);
}

// Belt and braces beyond the pinned constants: whatever the in-process engine
// computes at x1 today — including future legitimate golden updates — the
// multiproc substrate must match it field for field.
TEST(MultiprocGolden, SingleProcessTracksInProcessShardedExactly) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 50'000;
  bcfg.queue.arrival.rate = 24.0;  // open-loop: exercises the latency path
  const BackendStats sharded =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(150'000);
  const BackendStats multiproc =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(150'000);

  EXPECT_EQ(multiproc.requests, sharded.requests);
  EXPECT_EQ(multiproc.reads, sharded.reads);
  EXPECT_EQ(multiproc.cache_hits, sharded.cache_hits);
  EXPECT_EQ(multiproc.spine_hits, sharded.spine_hits);
  EXPECT_EQ(multiproc.server_reads, sharded.server_reads);
  EXPECT_EQ(multiproc.dropped, sharded.dropped);
  ASSERT_EQ(multiproc.cache_load.size(), sharded.cache_load.size());
  for (size_t l = 0; l < sharded.cache_load.size(); ++l) {
    ASSERT_EQ(multiproc.cache_load[l].size(), sharded.cache_load[l].size());
    for (size_t i = 0; i < sharded.cache_load[l].size(); ++i) {
      EXPECT_EQ(multiproc.cache_load[l][i], sharded.cache_load[l][i])
          << "layer " << l << " node " << i;  // bit-exact, not NEAR
    }
  }
  EXPECT_EQ(multiproc.latency.total(), sharded.latency.total());
  EXPECT_EQ(multiproc.latency.finite_sum(), sharded.latency.finite_sum());
  ASSERT_EQ(multiproc.series.size(), sharded.series.size());
  for (size_t i = 0; i < sharded.series.size(); ++i) {
    EXPECT_EQ(multiproc.series[i].requests, sharded.series[i].requests);
    EXPECT_EQ(multiproc.series[i].cache_hits, sharded.series[i].cache_hits);
  }
}

// Shard-process parity on the full timeline, mirroring the in-process
// tolerance test: the process substrate must not change what the cluster does.
TEST(MultiprocScaling, TimelineStatsParityAcross124Processes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 400'000;
  std::vector<BackendStats> runs;
  for (uint32_t shards : {1u, 2u, 4u}) {
    SimBackendConfig bcfg = GoldenBackendConfig(shards);
    bcfg.events = FullTimeline();
    runs.push_back(
        MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests));
  }
  const BackendStats& ref = runs.front();
  ASSERT_GT(ref.hit_ratio(), 0.2);
  ASSERT_GT(ref.dropped, 0u);
  for (size_t i = 1; i < runs.size(); ++i) {
    const BackendStats& st = runs[i];
    EXPECT_EQ(st.requests, kRequests);
    EXPECT_EQ(st.failed_shards, 0u);
    EXPECT_NEAR(st.hit_ratio(), ref.hit_ratio(), 0.02) << "shards run " << i;
    EXPECT_NEAR(st.CacheImbalance(), ref.CacheImbalance(),
                0.12 * ref.CacheImbalance())
        << "shards run " << i;
    const double drop_ref = static_cast<double>(ref.dropped);
    EXPECT_NEAR(static_cast<double>(st.dropped), drop_ref, 0.15 * drop_ref)
        << "shards run " << i;
  }
}

// The crash-isolation contract: SIGKILL one shard process mid-run. The
// supervisor must reap the corpse, let the survivors complete degraded, merge
// their stats, and report the dead shard — never hang on the quota-end
// rendezvous.
TEST(MultiprocCrash, KilledShardIsReportedAndSurvivorsReturnPartialStats) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  KillShardAt(&bcfg, /*shard=*/1, /*local=*/10'000);
  MultiprocBackend backend(bcfg);
  const BackendStats st = backend.Run(kRequests);

  EXPECT_EQ(st.failed_shards, 1u);
  // The survivor's full quota is merged; the dead shard contributes nothing.
  EXPECT_GE(st.requests, kRequests / 2);
  EXPECT_LT(st.requests, kRequests);
  EXPECT_GT(st.reads + st.writes, 0u);
}

TEST(MultiprocCrash, CrashDuringReallocateRendezvousDoesNotHang) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // The dead shard (killed at local 10k) never reaches the re-allocation
  // rendezvous at 120k — the survivor would wait for its report forever if
  // the rendezvous wait did not skip dead shards.
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  KillShardAt(&bcfg, /*shard=*/0, /*local=*/10'000);
  MultiprocBackend backend(bcfg);
  const BackendStats st = backend.Run(kRequests);

  EXPECT_EQ(st.failed_shards, 1u);
  EXPECT_LT(st.requests, kRequests);  // survivor wound down early or finished
}

// The compact-vs-dense leg for this substrate (route_compact_test.cc covers
// the in-process engines): a dense-table multiproc run must reproduce the same
// timeline pins as the compact default — the fallback branch and the stored
// tail entry are bit-identical routes.
TEST(MultiprocGolden, DenseRoutesTimelineRunMatchesCompactPins) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.dense_routes = true;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);
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
}

// Memory accounting fields (PR 9): a multiproc run reports its peak RSS, the
// one shared arena, and the per-process sampler; the route tables live in the
// arena, so the per-process route figure is zero by design.
TEST(MultiprocMemory, RunReportsArenaAndRssBytes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  const BackendStats st = MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);
  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_GT(st.peak_rss_bytes, 0u);
  EXPECT_GT(st.arena_bytes, 0u);
  EXPECT_GT(st.sampler_bytes, 0u);
  EXPECT_EQ(st.route_table_bytes, 0u);  // arena-resident, counted in arena_bytes
  EXPECT_EQ(st.respawned_shards, 0u);
}

// ---- respawn ---------------------------------------------------------------

TEST(MultiprocRespawn, KilledShardIsRespawnedAndTheRunCompletes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.respawn_limit = 3;
  KillShardAt(&bcfg, /*shard=*/1, /*local=*/10'000);
  MultiprocBackend backend(bcfg);
  const BackendStats st = backend.Run(kRequests);

  // The second incarnation re-joins from the arena-resident plan, re-runs its
  // quota from the start of its deterministic stream, and the run completes in
  // full: no failed shards, every request accounted for exactly once.
  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_EQ(st.reads + st.writes, kRequests);
}

TEST(MultiprocRespawn, RespawnedControllerShardSurvivesReallocRendezvous) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // Kill shard 0 — the realloc controller — before the rendezvous at 120k. The
  // respawned incarnation must republish its (idempotent, deterministic)
  // heavy-hitter report, rerun the controller computation, and publish the
  // rebuilt tables; the peer must neither hang nor observe torn state.
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  bcfg.respawn_limit = 3;
  KillShardAt(&bcfg, /*shard=*/0, /*local=*/10'000);
  MultiprocBackend backend(bcfg);
  const BackendStats st = backend.Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
}

// ---- delta delivery ----------------------------------------------------------
// Every shard hands in the loads it charged with its own stats, and the
// supervisor's merge sums them: no charge may be lost or counted twice. On a
// read-only run every charge is 1.0, so the merged loads must sum exactly to
// the hit and server-read counters. The 16,384 servers and the short epoch
// keep the per-node load vectors large and the telemetry rings busy while
// shards finish at different times.

void ExpectDeltasConserved(BackendKind kind, uint32_t shards) {
  SCOPED_TRACE(testing::Message() << "shards=" << shards);
  SimBackendConfig bcfg = GoldenBackendConfig(shards);
  bcfg.cluster.num_racks = 128;
  bcfg.cluster.servers_per_rack = 128;
  bcfg.cluster.write_ratio = 0.0;
  bcfg.epoch_requests = 1'024;
  constexpr uint64_t kRequests = 800'000;
  const BackendStats st = MakeSimBackend(kind, bcfg)->Run(kRequests);
  ASSERT_EQ(st.requests, kRequests);
  ASSERT_EQ(st.failed_shards, 0u);
  double cache = 0.0;
  for (const std::vector<double>& layer : st.cache_load) {
    cache += Summarize(layer).sum;
  }
  EXPECT_EQ(cache, static_cast<double>(st.cache_hits));
  EXPECT_EQ(Summarize(st.server_load).sum, static_cast<double>(st.server_reads));
  EXPECT_EQ(st.cache_hits + st.server_reads, kRequests);
}

TEST(DeltaDelivery, ThreadShardsConserveEveryCharge) {
  for (const uint32_t shards : {2u, 4u}) {
    ExpectDeltasConserved(BackendKind::kSharded, shards);
  }
}

TEST(DeltaDelivery, ForkedShardsConserveEveryCharge) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  for (const uint32_t shards : {2u, 4u}) {
    ExpectDeltasConserved(BackendKind::kMultiproc, shards);
  }
}

// ---- telemetry slots ---------------------------------------------------------
// Each shard publishes its partial into its own arena slot once per epoch
// boundary its clock reaches before its last batch, and no publish can block
// or be skipped for a peer's sake, so the transport count is a function of the
// config alone: (n - 1) messages per publish.

// Publishes of a shard with `quota` requests: the multiples of the epoch up to
// the start of its last batch.
uint64_t PublishesOf(uint64_t quota, uint64_t batch, uint64_t epoch) {
  return quota == 0 ? 0 : (quota - 1) / batch * batch / epoch;
}

uint64_t ExpectedRingMessages(const SimBackendConfig& bcfg, uint64_t requests) {
  uint64_t publishes = 0;
  for (uint32_t i = 0; i < bcfg.shards; ++i) {
    publishes += PublishesOf(MultiprocBackend::QuotaOf(requests, bcfg.shards, i),
                             bcfg.batch_size, bcfg.epoch_requests);
  }
  return (bcfg.shards - 1) * publishes;
}

TEST(TelemetrySlots, MessageCountIsAFunctionOfTheConfig) {
  constexpr uint64_t kRequests = 200'003;  // uneven quotas at x2 and x4
  std::vector<BackendKind> kinds = {BackendKind::kSharded};
  if (MultiprocRunnable()) {
    kinds.push_back(BackendKind::kMultiproc);
  }
  for (const BackendKind kind : kinds) {
    for (const uint32_t shards : {2u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << (kind == BackendKind::kSharded ? "threads" : "forks")
                   << " x" << shards);
      SimBackendConfig bcfg = GoldenBackendConfig(shards);
      bcfg.epoch_requests = 1'000;  // not a multiple of the batch size
      const uint64_t want = ExpectedRingMessages(bcfg, kRequests);
      ASSERT_GT(want, 0u);
      for (int repeat = 0; repeat < 2; ++repeat) {
        const BackendStats st = MakeSimBackend(kind, bcfg)->Run(kRequests);
        ASSERT_EQ(st.requests, kRequests);
        EXPECT_EQ(st.ring_messages, want) << "repeat " << repeat;
        EXPECT_LE(st.contended_receives, st.ring_messages);
      }
    }
  }
}

// A drop fault swallows whole publishes: k of them cost k (n - 1) messages.
TEST(TelemetrySlots, DroppedPublishesAreNotCounted) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 200'000;
  for (const uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "x" << shards);
    SimBackendConfig bcfg = GoldenBackendConfig(shards);
    bcfg.epoch_requests = 1'000;
    bcfg.fault_plan.events.push_back(
        {FaultKind::kDropTelemetry, 0, 20'000, 3});  // drop:0@20000:3
    const BackendStats st =
        MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);
    ASSERT_EQ(st.requests, kRequests);
    EXPECT_EQ(st.injected_faults, 1u);
    EXPECT_EQ(st.ring_messages,
              ExpectedRingMessages(bcfg, kRequests) - 3 * (shards - 1));
  }
}

// The shard runtime refuses a config it cannot run, in every build mode.
TEST(MultiprocBackendDeathTest, RefusesZeroShards) {
  EXPECT_DEATH(MultiprocBackend{GoldenBackendConfig(0)},
               "shards=0 \\(want >= 1\\)");
}

TEST(MultiprocBackendDeathTest, RefusesAnEmptyBatch) {
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.batch_size = 0;
  EXPECT_DEATH(MultiprocBackend{bcfg}, "batch_size=0 \\(want >= 1\\)");
}

TEST(MultiprocBackendDeathTest, RefusesAZeroEpochWithPeers) {
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.epoch_requests = 0;
  EXPECT_DEATH(MultiprocBackend{bcfg},
               "epoch_requests=0 \\(want >= 1 at shards > 1\\)");
  // One shard has no peers to hear from: its epoch is never read.
  bcfg.shards = 1;
  EXPECT_EQ(MakeSimBackend(BackendKind::kSharded, bcfg)->Run(1'000).requests,
            1'000u);
}

// A drop with no telemetry publish left after it arms would be counted as
// injected yet swallow nothing: past the shard's last epoch boundary (×2,
// quota 100,000, batch 64: the last publish is at 98,304, so a drop must arm
// at a batch start below it), or at ×1, which never publishes.
TEST(MultiprocBackendDeathTest, RefusesADropThatCannotFire) {
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.epoch_requests = 4096;
  bcfg.fault_plan.events = {{FaultKind::kDropTelemetry, 0, 196'480, 3}};
  EXPECT_EQ(MultiprocBackend::UnfiredDropFault(bcfg, 200'000), "");
  bcfg.fault_plan.events = {{FaultKind::kDropTelemetry, 0, 196'482, 3}};
  EXPECT_NE(MultiprocBackend::UnfiredDropFault(bcfg, 200'000), "");
  bcfg.fault_plan.events = {{FaultKind::kDropTelemetry, 0, 199'000, 3}};
  EXPECT_DEATH(MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000),
               "fault term drop:0@199000:3 can never fire");
  bcfg.shards = 1;
  bcfg.fault_plan.events = {{FaultKind::kDropTelemetry, 0, 1'000, 3}};
  EXPECT_DEATH(MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000),
               "fault term drop:0@1000:3 can never fire");
}

// ---- launcher differential -------------------------------------------------
// kSharded (threads) and kMultiproc (forks) are one runtime with two
// launchers; they differ only in who runs a re-allocation's refill (thread
// shard 0 once for the shared model, every forked shard on its own copy).
// Any deterministic run must therefore agree bit for bit across them.

void ExpectLaunchersAgree(const SimBackendConfig& bcfg, uint64_t requests) {
  const BackendStats threads =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(requests);
  const BackendStats forks =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(requests);
  ASSERT_EQ(threads.requests, requests);
  // The digest rows plus every load and latency histogram bit, the run's and
  // each interval's.
  EXPECT_EQ(FullStatsDigest(forks), FullStatsDigest(threads));
}

TEST(LauncherDifferential, OneShardFullTimelineIsBitIdentical) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  bcfg.queue.arrival.rate = 24.0;
  ExpectLaunchersAgree(bcfg, 200'000);
}

// Dynamic policies route by primary server, never by telemetry, so a
// two-shard run is deterministic and the shared-model vs per-child refill of
// the realloc rendezvous is visible in every counter.
TEST(LauncherDifferential, TwoShardLruWriteBackShiftReallocIsBitIdentical) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.cluster.cache_policy = CachePolicyKind::kLru;
  bcfg.cluster.write_policy = WritePolicy::kWriteBack;
  bcfg.events = {ClusterEvent::ShiftHotspot(90'000, 12'345),
                 ClusterEvent::ReallocateCache(120'000)};
  bcfg.sample_interval = 40'000;
  bcfg.queue.arrival.rate = 24.0;
  ExpectLaunchersAgree(bcfg, 200'000);
}

// First-choice routing reads no telemetry either, so a two-shard static-topk
// run is deterministic too — the static route-table counterpart of the LRU
// case, under two failures, recovery, a shift, a re-allocation and restoration.
TEST(LauncherDifferential, TwoShardStaticTopKFullTimelineIsBitIdentical) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.cluster.cache_policy = CachePolicyKind::kStaticTopK;
  bcfg.events = TwoFailureTimeline();
  bcfg.sample_interval = 40'000;
  bcfg.queue.arrival.rate = 24.0;
  ExpectLaunchersAgree(bcfg, 200'000);
}

// ---- xN digest pins ----------------------------------------------------------
// The deterministic multi-shard runs (static-topk's first-choice routing and
// the dynamic policies read no telemetry) pinned by value on both launchers:
// however the shards exchange messages or hand in their loads, these runs'
// DeterministicStatsDigest may not move, nor may the bits of their per-node
// loads (which the digest does not cover). FullStatsDigest covers the loads and
// every latency histogram too.

// Every cache and server load folded by its bit pattern, in node order.
uint64_t LoadBitsDigest(const BackendStats& st) {
  uint64_t h = 0;
  for (const std::vector<double>& layer : st.cache_load) {
    for (const double x : layer) {
      h = HashCombine(h, std::bit_cast<uint64_t>(x));
    }
  }
  for (const double x : st.server_load) {
    h = HashCombine(h, std::bit_cast<uint64_t>(x));
  }
  return h;
}

SimBackendConfig StaticTopKTimelineConfig(uint32_t shards) {
  SimBackendConfig bcfg = GoldenBackendConfig(shards);
  bcfg.cluster.cache_policy = CachePolicyKind::kStaticTopK;
  bcfg.events = TwoFailureTimeline();
  bcfg.sample_interval = 40'000;
  bcfg.queue.arrival.rate = 24.0;
  return bcfg;
}

TEST(ShardedDigestPins, DeterministicMultiShardRunsKeepTheirDigests) {
  SimBackendConfig lru = GoldenBackendConfig(2);
  lru.cluster.cache_policy = CachePolicyKind::kLru;
  lru.cluster.write_policy = WritePolicy::kWriteBack;
  lru.events = {ClusterEvent::ShiftHotspot(90'000, 12'345),
                ClusterEvent::ReallocateCache(120'000)};
  lru.sample_interval = 40'000;
  lru.queue.arrival.rate = 24.0;
  struct Pin {
    std::string label;
    SimBackendConfig config;
    uint64_t digest;
    uint64_t loads;
    uint64_t full;  // FullStatsDigest
  };
  const std::vector<Pin> pins = {
      {"static-topk x2", StaticTopKTimelineConfig(2), 0x3a0940fc49d51b20ULL,
       0x938938edd1bb2ca0ULL, 0xf19d7aa3866f9bd7ULL},
      {"static-topk x4", StaticTopKTimelineConfig(4), 0x3be126038868ead7ULL,
       0x4a70af800080f536ULL, 0xb553e3f61321477cULL},
      {"lru write-back x2", lru, 0xc9b99a3ec62433abULL,
       0x1ffd18ce60a2d419ULL, 0xc3e1d60fd7fdaaf8ULL},
  };
  std::vector<BackendKind> kinds = {BackendKind::kSharded};
  if (MultiprocRunnable()) {
    kinds.push_back(BackendKind::kMultiproc);
  }
  for (const Pin& pin : pins) {
    for (const BackendKind kind : kinds) {
      SCOPED_TRACE(pin.label + (kind == BackendKind::kSharded ? " threads"
                                                              : " forks"));
      const BackendStats st = MakeSimBackend(kind, pin.config)->Run(200'000);
      ASSERT_EQ(st.requests, 200'000u);
      EXPECT_EQ(DeterministicStatsDigest(st), pin.digest);
      EXPECT_EQ(LoadBitsDigest(st), pin.loads);
      EXPECT_EQ(FullStatsDigest(st), pin.full);
    }
  }
}

// A respawned shard re-runs its quota from the start, and only its final
// incarnation's stats blob is merged: the run equals the fault-free one in
// every digest row but the respawn count, and in every load bit for bit.
TEST(MultiprocRespawn, RespawnedShardLoadsCountExactlyOnce) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = StaticTopKTimelineConfig(2);
  const BackendStats clean =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);
  bcfg.respawn_limit = 3;
  KillShardAt(&bcfg, /*shard=*/1, /*local=*/25'000);  // kill:1@50000
  BackendStats st = MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  st.respawned_shards = 0;
  EXPECT_EQ(DeterministicStatsDigest(st), DeterministicStatsDigest(clean));
  EXPECT_EQ(st.cache_load, clean.cache_load);  // element bit-exact
  EXPECT_EQ(st.server_load, clean.server_load);
}

// Shard 0 dies before the re-allocation. With respawn on, its second
// incarnation republishes the same report, so the run is the fault-free
// ShardedDigestPins one. Without respawn the survivors refill from their own
// reports; its pins are the values the elected-controller runtime gave, with
// its one failover count zeroed (no controller is elected any more).
TEST(ShardedDigestPins, ShardZeroKilledBeforeTheReallocation) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig respawn = StaticTopKTimelineConfig(4);
  respawn.respawn_limit = 3;
  KillShardAt(&respawn, /*shard=*/0, /*local=*/10'000);  // kill:0@40000
  BackendStats st = MakeSimBackend(BackendKind::kMultiproc, respawn)->Run(200'000);
  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  st.respawned_shards = 0;
  EXPECT_EQ(DeterministicStatsDigest(st), 0x3be126038868ead7ULL);
  EXPECT_EQ(LoadBitsDigest(st), 0x4a70af800080f536ULL);
  EXPECT_EQ(FullStatsDigest(st), 0xb553e3f61321477cULL);

  SimBackendConfig degraded = StaticTopKTimelineConfig(3);
  KillShardAt(&degraded, /*shard=*/0, /*local=*/10'000);  // kill:0@30000
  st = MakeSimBackend(BackendKind::kMultiproc, degraded)->Run(200'000);
  EXPECT_EQ(st.failed_shards, 1u);
  EXPECT_EQ(st.controller_failovers, 0u);
  EXPECT_EQ(DeterministicStatsDigest(st), 0x49633ebcf212ecabULL);
  EXPECT_EQ(LoadBitsDigest(st), 0xe5e5ac93c18098a3ULL);
  EXPECT_EQ(FullStatsDigest(st), 0x6aab621f1eb6ffa1ULL);
}

// ---- static-topk is first-choice routing -----------------------------------
// kStaticTopK is kDistCache's static contents read through first-choice
// routing (EffectiveRouting, cluster/cluster_sim.h), so it must give the same
// run as --routing=first, bit for bit, on every engine.

TEST(StaticTopK, IsFirstChoiceRouting) {
  std::vector<std::pair<BackendKind, uint32_t>> engines = {
      {BackendKind::kSequential, 1},
      {BackendKind::kFluid, 1},
      {BackendKind::kSharded, 1},
      {BackendKind::kSharded, 2}};
  if (MultiprocRunnable()) {
    engines.push_back({BackendKind::kMultiproc, 1});
    engines.push_back({BackendKind::kMultiproc, 2});
  }
  for (const auto& [kind, shards] : engines) {
    for (const size_t layers : {size_t{2}, size_t{3}}) {
      for (const double writes : {0.2, 0.0}) {
        for (const bool timeline : {false, true}) {
          SimBackendConfig first = GoldenBackendConfig(shards);
          first.cluster.write_ratio = writes;
          first.cluster.routing = RoutingPolicy::kFirstChoice;
          if (layers == 3) {
            first.cluster.cache_layers.assign(3, LayerSpec{8, 50});
          }
          if (timeline) {
            first.events = TwoFailureTimeline();
            first.sample_interval = 40'000;
            first.queue.arrival.rate = 24.0;
          }
          SimBackendConfig topk = first;
          topk.cluster.routing = RoutingPolicy::kPowerOfTwo;
          topk.cluster.cache_policy = CachePolicyKind::kStaticTopK;
          SCOPED_TRACE("engine " + std::to_string(static_cast<int>(kind)) +
                       " x" + std::to_string(shards) + " L=" +
                       std::to_string(layers) + " writes=" +
                       std::to_string(writes) +
                       (timeline ? " timeline+open-loop" : " plain"));
          const BackendStats a = MakeSimBackend(kind, first)->Run(200'000);
          const BackendStats b = MakeSimBackend(kind, topk)->Run(200'000);
          ASSERT_EQ(a.requests, 200'000u);
          EXPECT_EQ(DeterministicStatsDigest(b), DeterministicStatsDigest(a));
          EXPECT_EQ(b.CacheImbalance(), a.CacheImbalance());
          EXPECT_EQ(b.hit_ratio(), a.hit_ratio());
          EXPECT_EQ(b.latency.Percentile(99.0), a.latency.Percentile(99.0));
          EXPECT_EQ(b.cache_load, a.cache_load);
          if (timeline) {
            EXPECT_GT(a.dropped, 0u);
            EXPECT_GT(a.latency.total(), 0u);
          }
        }
      }
    }
  }
}

// ---- stats codec -----------------------------------------------------------

// Sets table row i of `c` to value(i) (a double row holds the same integer).
template <typename Counters, typename Value>
void FillDistinct(Counters& c, Value value) {
  uint64_t row = 0;
  Counters::ForEach([&](auto field, MergeRule, bool) {
    c.*field = static_cast<std::remove_reference_t<decltype(c.*field)>>(
        value(row++));
  });
}

// Every row of the table equal bit for bit (doubles by their bit pattern).
template <typename Counters>
void ExpectCountersBitEqual(const Counters& got, const Counters& want) {
  size_t row = 0;
  Counters::ForEach([&](auto field, MergeRule, bool) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.*field),
              std::bit_cast<uint64_t>(want.*field))
        << "table row " << row;
    ++row;
  });
  // Byte for byte too, so a row listed twice (and so another missing) fails.
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(Counters)), 0);
}

TEST(StatsCodec, RoundTripsARealRunBitForBit) {
  // A real open-loop timeline run populates every field: counters, loads,
  // latency histogram, interval series with per-interval histograms.
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  bcfg.queue.arrival.rate = 24.0;
  BackendStats st = MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);
  ASSERT_FALSE(st.latency.empty());
  ASSERT_FALSE(st.series.empty());
  // A real sequential run stamps RSS, table and sampler bytes.
  EXPECT_GT(st.peak_rss_bytes, 0u);
  EXPECT_GT(st.route_table_bytes, 0u);
  EXPECT_GT(st.sampler_bytes, 0u);
  // Distinct non-zero counters: two swapped rows cannot both round-trip.
  FillDistinct<BackendCounters>(st, [](uint64_t i) { return 1000 + i; });
  for (size_t i = 0; i < st.series.size(); ++i) {
    FillDistinct<IntervalCounters>(
        st.series[i], [i](uint64_t row) { return 100 * (i + 1) + row; });
  }
  st.fault_events = {{1, BackendStats::FaultRecord::kShardDeath, 0},
                     {0, 3, 777}};

  const size_t bound = StatsCodecBound(
      st.cache_load.size(),
      st.cache_load.empty() ? 0 : st.cache_load.size() * st.cache_load[0].size(),
      st.server_load.size(), st.series.size(), st.fault_events.size());
  std::vector<uint8_t> buf(bound);
  const size_t len = SerializeBackendStats(st, buf.data(), buf.size());
  ASSERT_GT(len, 0u);
  ASSERT_LE(len, bound);

  BackendStats rt;
  ASSERT_TRUE(DeserializeBackendStats(buf.data(), len, &rt));
  ExpectCountersBitEqual<BackendCounters>(rt, st);
  ASSERT_EQ(rt.cache_load.size(), st.cache_load.size());
  for (size_t l = 0; l < st.cache_load.size(); ++l) {
    ASSERT_EQ(rt.cache_load[l], st.cache_load[l]);  // element bit-exact
  }
  EXPECT_EQ(rt.server_load, st.server_load);
  EXPECT_EQ(rt.latency.counts(), st.latency.counts());
  EXPECT_EQ(rt.latency.total(), st.latency.total());
  EXPECT_EQ(rt.latency.infinite(), st.latency.infinite());
  EXPECT_EQ(rt.latency.finite_sum(), st.latency.finite_sum());
  ASSERT_EQ(rt.series.size(), st.series.size());
  for (size_t i = 0; i < st.series.size(); ++i) {
    ExpectCountersBitEqual<IntervalCounters>(rt.series[i], st.series[i]);
    EXPECT_EQ(rt.series[i].latency.counts(), st.series[i].latency.counts());
    EXPECT_EQ(rt.series[i].latency.finite_sum(),
              st.series[i].latency.finite_sum());
  }
  ASSERT_EQ(rt.fault_events.size(), st.fault_events.size());
  for (size_t i = 0; i < st.fault_events.size(); ++i) {
    EXPECT_EQ(rt.fault_events[i].shard, st.fault_events[i].shard);
    EXPECT_EQ(rt.fault_events[i].kind, st.fault_events[i].kind);
    EXPECT_EQ(rt.fault_events[i].at, st.fault_events[i].at);
  }
}

TEST(StatsCodec, RejectsTruncatedBuffersWithoutCrashing) {
  BackendStats st;
  st.requests = 123;
  st.respawned_shards = 2;
  st.arena_bytes = 1u << 20;
  st.cache_load = {{1.0, 2.0}, {3.0}};
  st.server_load = {4.0, 5.0};
  std::vector<uint8_t> buf(StatsCodecBound(2, 3, 2, 0));
  const size_t len = SerializeBackendStats(st, buf.data(), buf.size());
  ASSERT_GT(len, 0u);

  BackendStats out;
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, len / 2, len - 1}) {
    EXPECT_FALSE(DeserializeBackendStats(buf.data(), cut, &out))
        << "accepted a " << cut << "-byte truncation of " << len;
    EXPECT_EQ(out.requests, 0u);  // value-initialized on failure
  }
  ASSERT_TRUE(DeserializeBackendStats(buf.data(), len, &out));
  EXPECT_EQ(out.requests, 123u);
  EXPECT_EQ(out.respawned_shards, 2u);
  EXPECT_EQ(out.arena_bytes, 1u << 20);

  // And a too-small serialize target reports 0, never a partial write claim.
  std::vector<uint8_t> tiny(8);
  EXPECT_EQ(SerializeBackendStats(st, tiny.data(), tiny.size()), 0u);
}

// Every scalar distinct and non-zero, three series points: the fixture the
// digest golden is pinned on. Built field by field so it stays independent of
// the table it checks.
BackendStats DigestFixture() {
  BackendStats st;
  st.requests = 1001;
  st.reads = 1002;
  st.writes = 1003;
  st.cache_hits = 1004;
  st.spine_hits = 1005;
  st.leaf_hits = 1006;
  st.server_reads = 1007;
  st.cache_write_hits = 1008;
  st.writebacks = 1009;
  st.dropped = 1010;
  st.ring_messages = 1012;
  st.uncontended_receives = 1013;
  st.contended_receives = 1014;
  st.failed_shards = 1015;
  st.respawned_shards = 1016;
  st.injected_faults = 1017;
  st.heartbeat_misses = 1018;
  st.controller_failovers = 1019;
  st.degraded_fraction = 0.375;
  st.peak_rss_bytes = 1021;
  st.route_table_bytes = 1022;
  st.sampler_bytes = 1023;
  st.arena_bytes = 1024;
  st.wall_seconds = 1.5;
  for (uint64_t i = 0; i < 3; ++i) {
    BackendStats::IntervalPoint pt;
    pt.requests = 100 + i;
    pt.delivered = 200 + i;
    pt.dropped = 300 + i;
    pt.reads = 400 + i;
    pt.cache_hits = 500 + i;
    st.series.push_back(pt);
  }
  return st;
}

// Pinned before the counters moved into one field table: the table must keep
// the digest's rows and their order.
TEST(StatsCodec, DeterministicDigestGolden) {
  EXPECT_EQ(DeterministicStatsDigest(DigestFixture()), 0xd8d97cd143db7e68ULL);
}

// Perturbing a row changes the digest exactly when the table marks it in_digest.
TEST(StatsCodec, DigestCoversExactlyTheTableDigestRows) {
  const BackendStats base = DigestFixture();
  const uint64_t digest = DeterministicStatsDigest(base);
  BackendCounters::ForEach([&](auto field, MergeRule, bool in_digest) {
    BackendStats copy = base;
    copy.*field += 1;
    EXPECT_EQ(DeterministicStatsDigest(copy) != digest, in_digest);
  });
  IntervalCounters::ForEach([&](auto field, MergeRule, bool in_digest) {
    BackendStats copy = base;
    copy.series[1].*field += 1;
    EXPECT_EQ(DeterministicStatsDigest(copy) != digest, in_digest);
  });
}

// Merge follows each row's rule, unions the fault records in order, merges
// the series per index and accumulates the load vectors element-wise.
TEST(StatsMerge, FollowsTheFieldTable) {
  // Rows alternate above and below `a` in `b`, so kMax must pick both sides.
  const auto a_value = [](uint64_t row) { return 1000 + row; };
  const auto b_value = [](uint64_t row) {
    return row % 2 == 0 ? 1500 + row : 500 + row;
  };
  BackendStats a;
  BackendStats b;
  FillDistinct<BackendCounters>(a, a_value);
  FillDistinct<BackendCounters>(b, b_value);
  a.fault_events = {{0, BackendStats::FaultRecord::kShardDeath, 0},
                    {1, 2, 50}};
  b.fault_events = {{3, BackendStats::FaultRecord::kShardRespawn, 0}};
  a.series.resize(2);
  b.series.resize(3);
  for (size_t i = 0; i < 3; ++i) {
    if (i < 2) {
      FillDistinct<IntervalCounters>(a.series[i],
                                     [i](uint64_t row) { return 10 * i + row; });
      a.series[i].latency.Add(1.0);
    }
    FillDistinct<IntervalCounters>(
        b.series[i], [i](uint64_t row) { return 100 * (i + 1) + row; });
    b.series[i].latency.Add(2.0);
  }
  a.cache_load = {{1.0, 2.0}, {3.0}};
  b.cache_load = {{10.0, 20.0}, {30.0, 40.0}, {50.0}};
  a.server_load = {1.0};
  b.server_load = {2.0, 3.0};

  BackendStats merged = a;
  merged.Merge(b);

  uint64_t row = 0;
  BackendCounters::ForEach([&](auto field, MergeRule rule, bool) {
    using T = std::remove_reference_t<decltype(merged.*field)>;
    const T x = static_cast<T>(a_value(row));
    const T y = static_cast<T>(b_value(row));
    EXPECT_EQ(merged.*field, rule == MergeRule::kSum ? x + y : std::max(x, y))
        << "table row " << row;
    ++row;
  });
  ASSERT_EQ(merged.fault_events.size(), 3u);
  EXPECT_EQ(merged.fault_events[0].kind, BackendStats::FaultRecord::kShardDeath);
  EXPECT_EQ(merged.fault_events[1].at, 50u);
  EXPECT_EQ(merged.fault_events[2].shard, 3u);
  ASSERT_EQ(merged.series.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    uint64_t r = 0;
    IntervalCounters::ForEach([&](auto field, MergeRule, bool) {
      const uint64_t want = (i < 2 ? 10 * i + r : 0) + 100 * (i + 1) + r;
      EXPECT_EQ(merged.series[i].*field, want) << "point " << i << " row " << r;
      ++r;
    });
    EXPECT_EQ(merged.series[i].latency.total(), i < 2 ? 2u : 1u);
  }
  const std::vector<std::vector<double>> want_cache = {
      {11.0, 22.0}, {33.0, 40.0}, {50.0}};
  EXPECT_EQ(merged.cache_load, want_cache);
  EXPECT_EQ(merged.server_load, (std::vector<double>{3.0, 3.0}));
}

}  // namespace
}  // namespace distcache
