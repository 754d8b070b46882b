// Engine-level tests for the dynamic cache-policy path (core/cache_policy.h):
//
//  * Sequential golden pin — the sequential engine is fully deterministic, so
//    an LRU run over the full failure+shift+realloc timeline pins the entire
//    dynamic-policy machinery (probe/commit split, inclusive fill and
//    back-invalidation, failure wipe and rewarm) bit-for-bit. Captured from the
//    build that introduced the policy layer.
//  * Engine parity — sequential vs sharded must agree on hit ratio within
//    statistical tolerance on the full timeline (per-shard policy replicas see
//    uniformly thinned streams, mirroring the telemetry-staleness relaxation),
//    and the fluid engine's per-policy closed form must land within loose
//    analytic tolerance of the request-level engines.
//  * Write-path counters — write-back absorbs writes at the caches and emits
//    eviction-time writebacks; write-through never does either.
//  * No controller re-allocation — the plan drops kReallocateCache and the
//    core builds no observer under a dynamic policy, and the timeline with
//    the step gives the same run as the one without it on every engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multiproc_runnable.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace distcache {
namespace {

// The scaling_test.cc golden cluster (8 spines, 8 racks, 4 servers/rack, 1M
// keys, zipf 0.99, 20% writes, seed 42) with the policy knobs exposed.
ClusterConfig PolicyCluster(CachePolicyKind policy, HierarchyMode hierarchy,
                            WritePolicy write) {
  ClusterConfig cfg;
  cfg.num_spine = 8;
  cfg.num_racks = 8;
  cfg.servers_per_rack = 4;
  cfg.per_switch_objects = 50;
  cfg.num_keys = 1'000'000;
  cfg.zipf_theta = 0.99;
  cfg.write_ratio = 0.2;
  cfg.seed = 42;
  cfg.cache_policy = policy;
  cfg.cache_hierarchy = hierarchy;
  cfg.write_policy = write;
  return cfg;
}

// The §4.4 + §6.4 composite timeline shared with scaling_test.cc. Under a
// dynamic policy the controller does not manage the contents, so the plan
// drops the kReallocateCache step; it stays in the timeline to pin that
// (ReallocateStepChangesNoDynamicRun below).
std::vector<ClusterEvent> FullTimeline() {
  return {ClusterEvent::FailSpine(40'000, 2), ClusterEvent::RunRecovery(60'000),
          ClusterEvent::ShiftHotspot(90'000, 12'345),
          ClusterEvent::ReallocateCache(120'000),
          ClusterEvent::RecoverSpine(150'000, 2)};
}

// Captured from the build that introduced the policy layer: sequential engine,
// LRU/inclusive/write-through, 200k requests, full timeline. Pins the dynamic
// request path end to end — any change to admission, eviction, fill, failure
// wipe or RNG draw order shows up here first.
TEST(PolicyGolden, SequentialLruTimelineRunIsDeterministic) {
  SimBackendConfig bcfg;
  bcfg.cluster = PolicyCluster(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                               WritePolicy::kWriteThrough);
  bcfg.events = FullTimeline();
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 160339u);
  EXPECT_EQ(st.writes, 39661u);
  EXPECT_EQ(st.cache_hits, 47331u);
  EXPECT_EQ(st.spine_hits, 43727u);
  EXPECT_EQ(st.leaf_hits, 3604u);
  EXPECT_EQ(st.server_reads, 111515u);
  EXPECT_EQ(st.dropped, 2015u);
  EXPECT_EQ(st.cache_write_hits, 0u);
  EXPECT_EQ(st.writebacks, 0u);
}

// The same run twice must be bit-identical (the policy runtime is fully
// deterministic; no hash-map iteration order leaks into behavior).
TEST(PolicyGolden, SequentialLruRunIsReproducible) {
  SimBackendConfig bcfg;
  bcfg.cluster = PolicyCluster(CachePolicyKind::kLfu, HierarchyMode::kExclusive,
                               WritePolicy::kWriteBack);
  bcfg.events = FullTimeline();
  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(150'000);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(150'000);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.spine_hits, b.spine_hits);
  EXPECT_EQ(a.leaf_hits, b.leaf_hits);
  EXPECT_EQ(a.cache_write_hits, b.cache_write_hits);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.dropped, b.dropped);
}

// A dynamic policy fills its own caches and never reads the allocation, so the
// controller's re-allocation step cannot change a request outcome: the full
// timeline gives the same run as the timeline without its ReallocateCache
// step, on every request engine. The dynamic path reads no PoT telemetry, so
// two-shard runs repeat and are compared by value too.
TEST(PolicyGolden, ReallocateStepChangesNoDynamicRun) {
  std::vector<ClusterEvent> without_step;
  for (const ClusterEvent& e : FullTimeline()) {
    if (e.kind != ClusterEvent::Kind::kReallocateCache) {
      without_step.push_back(e);
    }
  }
  ASSERT_EQ(without_step.size() + 1, FullTimeline().size());
  std::vector<std::pair<BackendKind, uint32_t>> engines = {
      {BackendKind::kSequential, 1},
      {BackendKind::kSharded, 1},
      {BackendKind::kSharded, 2}};
  if (MultiprocRunnable()) {
    engines.push_back({BackendKind::kMultiproc, 1});
    engines.push_back({BackendKind::kMultiproc, 2});
  }
  // One hierarchy/write pairing per policy, so all four combinations appear.
  const struct {
    CachePolicyKind policy;
    HierarchyMode hierarchy;
    WritePolicy write;
  } cases[] = {
      {CachePolicyKind::kLru, HierarchyMode::kInclusive, WritePolicy::kWriteThrough},
      {CachePolicyKind::kLfu, HierarchyMode::kExclusive, WritePolicy::kWriteBack},
      {CachePolicyKind::kFifo, HierarchyMode::kInclusive, WritePolicy::kWriteBack},
      {CachePolicyKind::kSegmented, HierarchyMode::kExclusive,
       WritePolicy::kWriteThrough}};
  for (const auto& c : cases) {
    for (const auto& [kind, shards] : engines) {
      SimBackendConfig with;
      with.cluster = PolicyCluster(c.policy, c.hierarchy, c.write);
      with.shards = shards;
      with.sample_interval = 40'000;
      with.events = FullTimeline();
      SimBackendConfig without = with;
      without.events = without_step;
      const auto engine = MakeSimBackend(kind, with);
      const BackendStats a = engine->Run(200'000);
      const BackendStats b = MakeSimBackend(kind, without)->Run(200'000);
      const std::string label = std::string(CachePolicyName(c.policy)) + " " +
                                engine->name() + " x" + std::to_string(shards);
      ASSERT_EQ(a.requests, 200'000u) << label;
      EXPECT_EQ(DeterministicStatsDigest(a), DeterministicStatsDigest(b)) << label;
      EXPECT_EQ(a.cache_load, b.cache_load) << label;  // element bit-exact
      EXPECT_EQ(a.server_load, b.server_load) << label;
    }
  }
}

// The resolution behind that no-op: under a dynamic policy the plan has no
// re-allocation step and the core builds no observer, so no engine counts,
// rendezvouses or refills for it. The static policies keep both.
TEST(PolicyGolden, OnlyStaticPoliciesPlanTheReallocateStep) {
  for (const CachePolicyKind policy :
       {CachePolicyKind::kDistCache, CachePolicyKind::kStaticTopK,
        CachePolicyKind::kLru, CachePolicyKind::kLfu, CachePolicyKind::kFifo,
        CachePolicyKind::kSegmented}) {
    SimBackendConfig bcfg;
    bcfg.cluster = PolicyCluster(policy, HierarchyMode::kInclusive,
                                 WritePolicy::kWriteThrough);
    bcfg.events = FullTimeline();
    ClusterModel model(bcfg.cluster);
    const std::vector<TimelineStep> plan = BuildTimelinePlan(bcfg, model);
    const bool has_step =
        std::any_of(plan.begin(), plan.end(), [](const TimelineStep& step) {
          return !step.is_phase &&
                 step.event.kind == ClusterEvent::Kind::kReallocateCache;
        });
    EXPECT_EQ(has_step, !PolicyIsDynamic(policy)) << CachePolicyName(policy);
    // Every other step survives, in order.
    EXPECT_EQ(plan.size(), FullTimeline().size() - (has_step ? 0 : 1))
        << CachePolicyName(policy);
  }
}

TEST(PolicyGolden, OnlyStaticPoliciesBuildTheObserver) {
  struct NullSink {
    void AddCacheLoad(CacheNodeId, double) {}
    void AddServerLoad(uint32_t, double) {}
  };
  for (const CachePolicyKind policy :
       {CachePolicyKind::kDistCache, CachePolicyKind::kLru}) {
    ClusterConfig cfg = PolicyCluster(policy, HierarchyMode::kInclusive,
                                      WritePolicy::kWriteThrough);
    cfg.write_ratio = 0.0;
    const ClusterModel model(cfg);
    EngineCore core(&model, 1, 2, /*enable_observer=*/true);
    BackendStats st;
    st.cache_load = model.ZeroCacheLoads();
    st.server_load.assign(model.num_servers(), 0.0);
    core.BindStats(&st);
    const RouteTable routes = BuildRouteTable(model);
    core.SetRoutes(routes);
    NullSink sink;
    // Every head rank read twice: each crosses the observer's threshold.
    for (int round = 0; round < 2; ++round) {
      for (uint32_t bucket = 0; bucket < 64; ++bucket) {
        core.Process(sink, bucket);
      }
    }
    ASSERT_EQ(st.reads, 128u);
    EXPECT_EQ(core.ObservedCounts().empty(), PolicyIsDynamic(policy))
        << CachePolicyName(policy);
  }
}

// Sequential vs sharded parity on the full timeline, across shard counts. Each
// shard runs a full-capacity policy replica over its (uniformly thinned) share
// of the stream, so aggregate hit ratios agree within statistical tolerance.
// This test is also the TSan target for the policy path: 4 shards exercise the
// per-shard replicas concurrently (they share no mutable state by design).
TEST(PolicyParity, LruTimelineAcross124Shards) {
  constexpr uint64_t kRequests = 200'000;
  SimBackendConfig bcfg;
  bcfg.cluster = PolicyCluster(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                               WritePolicy::kWriteThrough);
  bcfg.events = FullTimeline();
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(kRequests);
  ASSERT_GT(seq.hit_ratio(), 0.2);
  for (uint32_t shards : {2u, 4u}) {
    bcfg.shards = shards;
    const BackendStats shd =
        MakeSimBackend(BackendKind::kSharded, bcfg)->Run(kRequests);
    EXPECT_EQ(shd.requests, kRequests);
    EXPECT_NEAR(shd.hit_ratio(), seq.hit_ratio(), 0.02) << shards << " shards";
    EXPECT_NEAR(static_cast<double>(shd.writes) / static_cast<double>(kRequests),
                static_cast<double>(seq.writes) / static_cast<double>(kRequests),
                0.01)
        << shards << " shards";
  }
}

// Fluid-vs-sequential cross-check: the per-policy closed forms (Che for
// LRU/SLRU, λT/(1+λT) for FIFO, top-C for LFU) are approximations — composed
// across layers by miss-stream thinning — so the tolerance is loose, but they
// must land in the right neighborhood and preserve the policy ordering
// (LFU ≥ LRU on a static Zipf workload; both below the static optimum).
TEST(PolicyParity, FluidClosedFormsTrackTheEngines) {
  for (CachePolicyKind policy :
       {CachePolicyKind::kLru, CachePolicyKind::kLfu, CachePolicyKind::kFifo}) {
    SimBackendConfig bcfg;
    bcfg.cluster = PolicyCluster(policy, HierarchyMode::kExclusive,
                                 WritePolicy::kWriteThrough);
    bcfg.cluster.write_ratio = 0.0;
    const double seq =
        MakeSimBackend(BackendKind::kSequential, bcfg)->Run(300'000).hit_ratio();
    const double fluid =
        MakeSimBackend(BackendKind::kFluid, bcfg)->Run(300'000).hit_ratio();
    EXPECT_NEAR(fluid, seq, 0.08) << CachePolicyName(policy);
  }

  // The static allocation beats inclusive dynamic policies on raw hit ratio
  // (inclusive duplication burns capacity; the static scheme caches each hot
  // key exactly once). Exclusive dynamic policies can edge it out on hits —
  // the static scheme's real win is load balance, which bench_policy measures.
  SimBackendConfig distcache;
  distcache.cluster = PolicyCluster(CachePolicyKind::kDistCache,
                                    HierarchyMode::kInclusive,
                                    WritePolicy::kWriteThrough);
  distcache.cluster.write_ratio = 0.0;
  SimBackendConfig lfu;
  lfu.cluster = PolicyCluster(CachePolicyKind::kLfu, HierarchyMode::kInclusive,
                              WritePolicy::kWriteThrough);
  lfu.cluster.write_ratio = 0.0;
  const double static_hit =
      MakeSimBackend(BackendKind::kSequential, distcache)->Run(300'000).hit_ratio();
  const double lfu_hit =
      MakeSimBackend(BackendKind::kSequential, lfu)->Run(300'000).hit_ratio();
  EXPECT_GT(static_hit, lfu_hit);
}

// Write-back absorbs cached writes and pays eviction-time writebacks;
// write-through does neither (it charges coherence per copy instead).
TEST(PolicyWritePath, WriteBackCountersFlowThroughBackendStats) {
  SimBackendConfig wb;
  wb.cluster = PolicyCluster(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                             WritePolicy::kWriteBack);
  const BackendStats back =
      MakeSimBackend(BackendKind::kSequential, wb)->Run(150'000);
  EXPECT_GT(back.cache_write_hits, 0u);
  EXPECT_GT(back.writebacks, 0u);
  EXPECT_LE(back.cache_write_hits, back.writes);

  SimBackendConfig wt;
  wt.cluster = PolicyCluster(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                             WritePolicy::kWriteThrough);
  const BackendStats through =
      MakeSimBackend(BackendKind::kSequential, wt)->Run(150'000);
  EXPECT_EQ(through.cache_write_hits, 0u);
  EXPECT_EQ(through.writebacks, 0u);
}

// Dynamic policies at L=3: the policy grid follows the configured hierarchy,
// and sequential/sharded parity holds at depth too.
TEST(PolicyParity, ThreeLayerLruParity) {
  SimBackendConfig bcfg;
  bcfg.cluster = PolicyCluster(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                               WritePolicy::kWriteThrough);
  bcfg.cluster.cache_layers = {{8, 40}, {8, 40}, {8, 40}};
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);
  ASSERT_EQ(seq.cache_load.size(), 3u);
  ASSERT_GT(seq.hit_ratio(), 0.1);
  bcfg.shards = 2;
  const BackendStats shd =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(200'000);
  EXPECT_NEAR(shd.hit_ratio(), seq.hit_ratio(), 0.02);
}

}  // namespace
}  // namespace distcache
