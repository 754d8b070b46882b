// Fluid-engine golden: pins ClusterSim's saturation and achieved throughput,
// its failure/remap path and its latency report, and FluidBackend::Run's
// counters, series, per-node loads and latency percentiles, all by bit
// pattern. The other fluid tests compare within tolerances; this one fails on
// any change that moves a single fluid number, so a refactor of the fluid
// engine (its model build, remap sync, capacity rule or timeline walk) either
// keeps every figure or shows here.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "cluster/fluid_backend.h"
#include "cluster/latency.h"
#include "common/hash.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace distcache {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectBits(const char* what, double got, uint64_t want) {
  if (Bits(got) != want) {
    char bits[32];
    std::snprintf(bits, sizeof(bits), "0x%016llx",
                  static_cast<unsigned long long>(Bits(got)));
    ADD_FAILURE() << what << ": got " << got << " (bits " << bits << ")";
  }
}

void ExpectU64(const char* what, uint64_t got, uint64_t want) {
  if (got != want) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(got));
    ADD_FAILURE() << what << ": got " << hex;
  }
}

// Hash over the per-node load bit patterns, shapes included.
uint64_t LoadDigest(const BackendStats& st) {
  uint64_t h = 0x10adULL;
  const auto mix = [&h](uint64_t v) { h = Mix64(HashCombine(h, v)); };
  mix(st.cache_load.size());
  for (const std::vector<double>& layer : st.cache_load) {
    mix(layer.size());
    for (double x : layer) {
      mix(Bits(x));
    }
  }
  mix(st.server_load.size());
  for (double x : st.server_load) {
    mix(Bits(x));
  }
  return h;
}

ClusterConfig GoldenCluster() {
  ClusterConfig cfg;
  cfg.num_spine = 8;
  cfg.num_racks = 8;
  cfg.servers_per_rack = 4;
  cfg.per_switch_objects = 20;
  cfg.num_keys = 200'000;
  cfg.zipf_theta = 0.99;
  cfg.write_ratio = 0.05;
  cfg.seed = 7;
  // Uncapped, so the saturation search reports the cache layers' own limit.
  cfg.cap_at_server_aggregate = false;
  return cfg;
}

struct SimGolden {
  const char* name;
  Mechanism mechanism;
  CachePolicyKind policy;
  uint64_t saturation;
  uint64_t achieved;
  uint64_t failed;      // AchievedThroughput with spines 0 and 1 dead
  uint64_t remapped;    // ... after RunFailureRecovery
  uint64_t recovered;   // ... after both spines recover
  uint64_t latency[6];  // mean, p50, p95, p99, hit_fraction, overloaded_fraction
};

// clang-format off
constexpr SimGolden kSimGoldens[] = {
    {"distcache", Mechanism::kDistCache, CachePolicyKind::kDistCache,
     0x4043680000000000, 0x4043333333333333, 0x403caceb34793c5c,
     0x4043333333333333, 0x4043333333333333,
     {0x3ff5d1c36661a973, 0x400013a91ebf024d, 0x4000616128be395b,
      0x4000e23f541afa37, 0x3fdbccbcf88ce0da, 0}},
    {"replication", Mechanism::kCacheReplication, CachePolicyKind::kDistCache,
     0x403ec00000000000, 0x404313a67d0cdb50, 0x403e2c063d359145,
     0x40431cb68f14399f, 0x404313a67d0cdb50,
     {0x3ff6ec70c0d34797, 0x4000409727ec8480, 0x4000b309cdf515d3,
      0x4001e597ad185520, 0x3fdb3cfdc440059c, 0}},
    {"partition", Mechanism::kCachePartition, CachePolicyKind::kDistCache,
     0x4040c80000000000, 0x4042e9dde3881f49, 0x403c3a222d76a4f8,
     0x4042e9dde3881f49, 0x4042e9dde3881f49,
     {0x3ff7da8c1279fd9b, 0x400021163f95e8da, 0x4000796f9acf2db5,
      0x4000bc63e53c3167, 0x3fdb3cfdc440059c, 0}},
    {"nocache", Mechanism::kNoCache, CachePolicyKind::kDistCache,
     0x4023980000000000, 0x403ddf038a099ccc, 0x40344569f0700332,
     0x403ddf038a099ccc, 0x403ddf038a099ccc,
     {0x400d59699a6ab285, 0x4004ccccccccccca, 0x7ff0000000000000,
      0x7ff0000000000000, 0, 0x3fb730a926914cc3}},
    {"lru", Mechanism::kDistCache, CachePolicyKind::kLru,
     0x403ea80000000000, 0x40429e6861a2aaaa, 0x403e29d9a4d1f075,
     0x40431f22622ae12b, 0x40429e6861a2aaaa,
     {0x3ff72233b034e081, 0x4000a84daae80dc3, 0x4001933533474cc9,
      0x4002892d3c74788d, 0x3fdbccbcf88ce0da, 0}},
    {"lfu", Mechanism::kDistCache, CachePolicyKind::kLfu,
     0x403bf00000000000, 0x4042754c9a5813b5, 0x403f6de97e605a9e,
     0x4043333333333333, 0x4042754c9a5813b5,
     {0x3ff5e8f6acc59e53, 0x3fff63fbeee754b9, 0x40000cebebc639ba,
      0x400067edb538430f, 0x3fdbccbcf88ce0da, 0}},
};
// clang-format on

TEST(FluidGolden, ClusterSimFiguresByValue) {
  for (const SimGolden& g : kSimGoldens) {
    SCOPED_TRACE(g.name);
    ClusterConfig cfg = GoldenCluster();
    cfg.mechanism = g.mechanism;
    cfg.cache_policy = g.policy;
    ClusterSim sim(cfg);
    // Above server capacity, so the achieved figures count dropped load.
    const double offered = 1.2 * sim.TotalServerCapacity();
    ExpectBits("saturation", sim.SaturationThroughput(), g.saturation);
    ExpectBits("achieved", sim.AchievedThroughput(offered), g.achieved);
    sim.FailSpine(0);
    sim.FailSpine(1);
    ExpectBits("failed", sim.AchievedThroughput(offered), g.failed);
    sim.RunFailureRecovery();
    ExpectBits("remapped", sim.AchievedThroughput(offered), g.remapped);
    sim.RecoverSpine(0);
    sim.RecoverSpine(1);
    ExpectBits("recovered", sim.AchievedThroughput(offered), g.recovered);
    const LatencyReport r = ComputeLatencyReport(sim, 0.5 * sim.TotalServerCapacity());
    ExpectBits("mean", r.mean, g.latency[0]);
    ExpectBits("p50", r.p50, g.latency[1]);
    ExpectBits("p95", r.p95, g.latency[2]);
    ExpectBits("p99", r.p99, g.latency[3]);
    ExpectBits("hit_fraction", r.hit_fraction, g.latency[4]);
    ExpectBits("overloaded_fraction", r.overloaded_fraction, g.latency[5]);
  }
}

constexpr uint64_t kRequests = 100'000;

struct BackendGolden {
  uint64_t digest;       // DeterministicStatsDigest: counters and series
  uint64_t loads;        // LoadDigest: per-node cache_load / server_load bits
  uint64_t latency[4];   // mean, p50, p99, p99.9 (open loop only)
};

void ExpectBackend(const SimBackendConfig& bcfg, const BackendGolden& want) {
  const BackendStats st = FluidBackend(bcfg).Run(kRequests);
  ExpectU64("digest", DeterministicStatsDigest(st), want.digest);
  ExpectU64("loads", LoadDigest(st), want.loads);
  if (bcfg.queue.enabled()) {
    ExpectBits("latency mean", st.latency.mean(), want.latency[0]);
    ExpectBits("latency p50", st.latency.Percentile(50.0), want.latency[1]);
    ExpectBits("latency p99", st.latency.Percentile(99.0), want.latency[2]);
    ExpectBits("latency p99.9", st.latency.Percentile(99.9), want.latency[3]);
  } else {
    EXPECT_TRUE(st.latency.empty());
  }
}

TEST(FluidGolden, FailureRemapRecoverSampled) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  for (uint32_t s = 0; s < 2; ++s) {
    bcfg.events.push_back(ClusterEvent::FailSpine(20'000, s));
    bcfg.events.push_back(ClusterEvent::RecoverSpine(75'000, s));
  }
  bcfg.events.push_back(ClusterEvent::RunRecovery(50'000));
  bcfg.sample_interval = 10'000;
  ExpectBackend(bcfg, {0x0937f0acd354c208, 0x1bade92b45e01224, {}});
}

// Shift then re-allocate, unsampled: every segment boundary is a timeline
// step. Under lru the kReallocateCache step changes nothing, but it still
// starts a new segment and so adds a series point.
SimBackendConfig ShiftRealloc(CachePolicyKind policy) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.cluster.cache_policy = policy;
  bcfg.events.push_back(ClusterEvent::ShiftHotspot(25'000, 100'000));
  bcfg.events.push_back(ClusterEvent::ReallocateCache(50'000));
  return bcfg;
}

TEST(FluidGolden, ShiftReallocDistCache) {
  ExpectBackend(ShiftRealloc(CachePolicyKind::kDistCache),
                {0xb189591018d2ccb9, 0x9bce68e118d8ed65, {}});
}

TEST(FluidGolden, ShiftReallocLru) {
  ExpectBackend(ShiftRealloc(CachePolicyKind::kLru),
                {0x739d24798c74ffd8, 0x01a91466c7774ed0, {}});
}

TEST(FluidGolden, PhaseAndEventAtOneTimestamp) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.phases = {{0, 0.99, 0.05, 0}, {40'000, 0.8, 0.2, 5'000}};
  // At 40k the phase (shift 5'000) applies before the events, so the event's
  // shift is the one left in force.
  bcfg.events.push_back(ClusterEvent::ShiftHotspot(40'000, 70'000));
  bcfg.events.push_back(ClusterEvent::FailSpine(40'000, 3));
  bcfg.events.push_back(ClusterEvent::RunRecovery(60'000));
  bcfg.sample_interval = 20'000;
  ExpectBackend(bcfg, {0x825d7c4397761a80, 0x3e84c44c77a0bb0d, {}});
}

TEST(FluidGolden, OpenLoopThreeLayers) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.cluster.cache_layers = {{8, 20}, {6, 20}, {8, 20}};
  bcfg.cluster.leaf_capacity = 6.0;
  bcfg.queue.arrival.rate = 0.6 * 32;
  ExpectBackend(bcfg, {0xf9fb426a8e35d819, 0xc47ee048ab1fddfd,
                       {0x3ff8e049c8b695c7, 0x3ff11301d0125b51,
                        0x401cb720dcef9069, 0x4025342b569d4f82}});
}

}  // namespace
}  // namespace distcache
