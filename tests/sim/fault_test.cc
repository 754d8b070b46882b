// Fault-injection and supervisor-hardening tests (runtime/fault_plan.h +
// sim/multiproc_backend.h):
//
//  * every fault class terminates — crash (clean exit / SIGKILL / abort),
//    straggler stall, telemetry drop, telemetry delay, stats corruption and
//    arena-map failure each get a run that must return within the test
//    timeout with the right failed/respawned/degraded accounting;
//  * determinism — two runs with the same seed and the same fault plan
//    produce byte-identical deterministic stats (DeterministicStatsDigest);
//  * no controller to lose — killing shard 0 before the realloc rendezvous
//    leaves the survivor to refill from the reports it has: the run
//    completes and the surviving hit ratio stays within 5% of the no-fault
//    run;
//  * repeated respawn — the same shard SIGKILLed twice mid-run and once more
//    at the realloc rendezvous still completes under --respawn with every
//    death counted.
//
// Like the other multiproc tests, everything that forks is skipped under TSan
// and on hosts without a mappable shm arena.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "multiproc_runnable.h"
#include "runtime/fault_plan.h"
#include "sim/multiproc_backend.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace distcache {
namespace {

constexpr uint64_t kRequests = 200'000;

// Same cluster the multiproc golden tests use: 8 spines, 8 racks, 4
// servers/rack, 1M keys, zipf 0.99, 20% writes, seed 42, batch 64.
SimBackendConfig FaultConfig(uint32_t shards, const std::string& plan_spec) {
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
  if (!plan_spec.empty()) {
    std::string error;
    EXPECT_TRUE(ParseFaultPlan(plan_spec, shards, kRequests, bcfg.cluster.seed,
                               &bcfg.fault_plan, &error))
        << plan_spec << ": " << error;
  }
  return bcfg;
}

std::vector<ClusterEvent> ReallocTimeline() {
  return {ClusterEvent::ShiftHotspot(90'000, 12'345),
          ClusterEvent::ReallocateCache(120'000)};
}

bool HasRecord(const BackendStats& st, uint32_t kind) {
  for (const BackendStats::FaultRecord& r : st.fault_events) {
    if (r.kind == kind) return true;
  }
  return false;
}

// ---- crash classes ---------------------------------------------------------

TEST(FaultInjection, KillWithoutRespawnDegradesProportionally) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, FaultConfig(2, "kill:1@10000"))
          ->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 1u);
  EXPECT_EQ(st.respawned_shards, 0u);
  // Degrade, don't abort: the survivor completes its full half of the quota,
  // and the lost half is charged to degraded_fraction.
  EXPECT_EQ(st.requests, kRequests / 2);
  EXPECT_DOUBLE_EQ(st.degraded_fraction, 0.5);
  EXPECT_TRUE(HasRecord(st, BackendStats::FaultRecord::kShardDeath));
}

TEST(FaultInjection, CleanExitIsDetectedAndRespawned) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // An injected clean exit(0) leaves the shard slot in kShardRunning, which
  // is how the supervisor tells a premature exit 0 from an orderly one.
  SimBackendConfig bcfg = FaultConfig(2, "exit:1@20000");
  bcfg.respawn_limit = 3;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_EQ(st.reads + st.writes, kRequests);
  EXPECT_DOUBLE_EQ(st.degraded_fraction, 0.0);
  EXPECT_TRUE(HasRecord(st, BackendStats::FaultRecord::kShardRespawn));
}

TEST(FaultInjection, AbortIsDetectedAndRespawned) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = FaultConfig(2, "abort:1@20000");
  bcfg.respawn_limit = 3;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
}

// ---- stalls and the heartbeat ladder ---------------------------------------

TEST(FaultInjection, StallTripsHeartbeatWarnButRunCompletes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = FaultConfig(2, "stall:1@10000:300");
  bcfg.heartbeat_warn_ms = 50;
  bcfg.heartbeat_dead_ms = 0;  // warn-only: never escalate to SIGKILL
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_GE(st.injected_faults, 1u);
  EXPECT_GE(st.heartbeat_misses, 1u);
  EXPECT_TRUE(HasRecord(st, BackendStats::FaultRecord::kHeartbeatWarn));
}

TEST(FaultInjection, LongStallIsDeclaredDeadAndRespawned) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // The stall (10s) far exceeds the dead deadline (500ms): the supervisor
  // must SIGKILL the straggler and respawn it instead of waiting it out.
  SimBackendConfig bcfg = FaultConfig(2, "stall:1@10000:10000");
  bcfg.respawn_limit = 3;
  bcfg.heartbeat_warn_ms = 100;
  bcfg.heartbeat_dead_ms = 500;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_GE(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_TRUE(HasRecord(st, BackendStats::FaultRecord::kShardDeclaredDead));
}

// ---- message-plane faults --------------------------------------------------

TEST(FaultInjection, DroppedTelemetryRunCompletesNearCleanHitRatio) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats clean =
      MakeSimBackend(BackendKind::kMultiproc, FaultConfig(2, ""))
          ->Run(kRequests);
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, FaultConfig(2, "drop:0@10000:4"))
          ->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_GE(st.injected_faults, 1u);
  // Losing a few telemetry publishes shifts load estimates, not hits.
  EXPECT_NEAR(st.hit_ratio(), clean.hit_ratio(), 0.05);
}

TEST(FaultInjection, DelayedControlMessagesRunCompletes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = FaultConfig(2, "delay:0@10000:20");
  bcfg.events = ReallocTimeline();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_GE(st.injected_faults, 1u);
  EXPECT_TRUE(
      HasRecord(st, static_cast<uint32_t>(FaultKind::kDelayControl)));
}

// A delay that fires after shard 0's last telemetry publish (local 99,500 of
// its 100,000) has no telemetry publish left to hold: the stats publish must
// take it, so the run still lasts the delay.
TEST(FaultInjection, DelayAfterTheLastBroadcastHoldsTheStatsPublish) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc,
                     FaultConfig(2, "delay:0@199000:200"))
          ->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_GE(st.wall_seconds, 0.2);
  EXPECT_TRUE(
      HasRecord(st, static_cast<uint32_t>(FaultKind::kDelayControl)));
}

// ---- stats integrity -------------------------------------------------------

TEST(FaultInjection, CorruptedStatsBlobIsCaughtByCrc) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, FaultConfig(2, "corrupt:1@10000"))
          ->Run(kRequests);

  // The shard itself ran to completion, but its blob fails the CRC check, so
  // the supervisor must treat it as lost rather than merge garbage.
  EXPECT_EQ(st.failed_shards, 1u);
  EXPECT_EQ(st.requests, kRequests / 2);
  EXPECT_DOUBLE_EQ(st.degraded_fraction, 0.5);
  EXPECT_TRUE(HasRecord(st, BackendStats::FaultRecord::kStatsCrcMismatch));
}

TEST(FaultInjection, ArenaMapFailureFailsFastWithoutForking) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, FaultConfig(2, "mapfail"))
          ->Run(kRequests);

  EXPECT_EQ(st.requests, 0u);
  EXPECT_EQ(st.failed_shards, 2u);
  EXPECT_DOUBLE_EQ(st.degraded_fraction, 1.0);
  EXPECT_TRUE(HasRecord(st, BackendStats::FaultRecord::kArenaMapFailed));
}

// ---- determinism -----------------------------------------------------------

TEST(FaultInjection, SameSeedSameFaultPlanIsByteIdentical) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = FaultConfig(2, "random:6");
  bcfg.respawn_limit = 3;
  bcfg.events = ReallocTimeline();
  const BackendStats a =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  // Spot checks first so a mismatch names the diverging counter...
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.failed_shards, b.failed_shards);
  EXPECT_EQ(a.respawned_shards, b.respawned_shards);
  // ...then the full deterministic-subset digest.
  EXPECT_EQ(DeterministicStatsDigest(a), DeterministicStatsDigest(b));
}

// ---- shard 0 dies before the rendezvous ------------------------------------

TEST(FaultInjection, ControllerDeathFailsOverReallocRendezvous) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig clean_cfg = FaultConfig(2, "");
  clean_cfg.events = ReallocTimeline();
  const BackendStats clean =
      MakeSimBackend(BackendKind::kMultiproc, clean_cfg)->Run(kRequests);

  // Shard 0 dies long before the rendezvous at 120k. Shard 1 must refill
  // from the one report it has and install its own tables.
  SimBackendConfig bcfg = FaultConfig(2, "kill:0@10000");
  bcfg.events = ReallocTimeline();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 1u);
  EXPECT_EQ(st.requests, kRequests / 2);
  // The survivor's post-realloc hit ratio tracks the no-fault run: it really
  // did refill and install a usable table.
  EXPECT_NEAR(st.hit_ratio(), clean.hit_ratio(), 0.05);
}

// ---- repeated respawn (same shard, multiple deaths) ------------------------

TEST(FaultInjection, SameShardKilledThriceUnderRespawnStillCompletes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // Twice mid-run, once more right at the realloc rendezvous. Each respawned
  // incarnation replays from scratch; the arena-resident one-shot latches
  // keep already-fired faults from firing again.
  SimBackendConfig bcfg =
      FaultConfig(2, "kill:1@20000,kill:1@100000,kill:1@120000");
  bcfg.respawn_limit = 3;
  bcfg.events = ReallocTimeline();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 3u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_EQ(st.reads + st.writes, kRequests);
  EXPECT_DOUBLE_EQ(st.degraded_fraction, 0.0);
}

}  // namespace
}  // namespace distcache
