// YCSB core-workload suite over the four mechanisms (extension bench; the paper uses
// plain zipf/write-ratio sweeps, but cites YCSB [6] as the canonical benchmark).
// Each mix maps onto the cluster simulator as its effective write fraction over the
// same zipf-0.99 popularity; YCSB-D's "latest" popularity is rank-equivalent because
// hash placement decorrelates rank from location. Also drives the threaded runtime
// for a sanity row of real executed operations.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "common/ycsb.h"
#include "runtime/runtime.h"

namespace distcache {
namespace {

void Run(BenchJson& json, const BenchPolicyFlag& policy) {
  PrintHeader("YCSB core workloads (zipf-0.99, paper-default cluster)",
              "normalized saturation throughput per mechanism");
  if (!policy.is_default()) {
    std::printf("DistCache column runs cache policy: %s\n", policy.name());
  }
  json.Config("cache_policy", policy.name());
  std::printf("%-24s %12s %18s %16s %10s\n", "workload", "DistCache",
              "CacheReplication", "CachePartition", "NoCache");
  const std::vector<YcsbWorkload> mixes = SmokeSweep<YcsbWorkload>(
      {YcsbWorkload::kB}, {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
                           YcsbWorkload::kD, YcsbWorkload::kF});
  for (YcsbWorkload w : mixes) {
    std::printf("%-24s", YcsbWorkloadName(w));
    for (Mechanism m : AllMechanisms()) {
      ClusterConfig cfg = PaperDefaultConfig(m);
      cfg.write_ratio = EffectiveWriteRatio(w);
      policy.Apply(&cfg);
      ClusterSim sim(cfg);
      const int width = m == Mechanism::kDistCache          ? 12
                        : m == Mechanism::kCacheReplication ? 18
                        : m == Mechanism::kCachePartition   ? 16
                                                            : 10;
      const double saturation = sim.SaturationThroughput();
      if (m == Mechanism::kDistCache) {
        json.Metric(std::string(YcsbWorkloadName(w)) + "_distcache", saturation);
      }
      std::printf(" %*.0f", width, saturation);
    }
    std::printf("\n");
  }

  PrintHeader("YCSB on the threaded runtime (2 spines, 2 racks x 2 servers)",
              "real executed operations; hit ratio of the cache layers");
  const std::vector<YcsbWorkload> rt_mixes = SmokeSweep<YcsbWorkload>(
      {YcsbWorkload::kB}, {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC});
  for (YcsbWorkload w : rt_mixes) {
    RuntimeConfig rt_cfg;
    rt_cfg.num_spine = 2;
    rt_cfg.num_racks = 2;
    rt_cfg.servers_per_rack = 2;
    rt_cfg.per_switch_objects = 32;
    rt_cfg.num_keys = 8192;
    DistCacheRuntime runtime(rt_cfg);
    runtime.Start();
    auto client = runtime.NewClient(1);
    YcsbGenerator::Config gen_cfg;
    gen_cfg.workload = w;
    gen_cfg.num_keys = 8192;
    YcsbGenerator gen(gen_cfg);
    constexpr int kOps = 20000;
    for (int i = 0; i < kOps; ++i) {
      const Op op = gen.Next();
      const uint64_t key = op.key % rt_cfg.num_keys;  // runtime preload is fixed
      if (op.type == OpType::kGet) {
        client->Get(key).ok();
      } else {
        client->Put(key, "ycsb-value").ok();
      }
    }
    runtime.Stop();
    const auto& counters = runtime.counters();
    const double hits = static_cast<double>(counters.cache_hits.load());
    const double gets =
        hits + static_cast<double>(counters.server_gets.load());
    const double hit_ratio = gets > 0 ? hits / gets : 0.0;
    json.Metric(std::string(YcsbWorkloadName(w)) + "_runtime_hit_ratio", hit_ratio);
    std::printf("  %-24s ops=%d  hit ratio=%.2f  coherence invalidations=%llu\n",
                YcsbWorkloadName(w), kOps, hit_ratio,
                static_cast<unsigned long long>(counters.invalidations.load()));
  }
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "ycsb", {"cache-policy="});
  const distcache::BenchPolicyFlag policy(json.flags());
  distcache::Run(json, policy);
  return 0;
}
