// Figure 9(b): normalized throughput vs cache size (read-only, Zipf-0.99).
// Paper shape: CachePartition stays flat/low (hot-switch imbalance); DistCache and
// CacheReplication climb with cache size and then saturate. Cache size counts objects
// across all 64 cache switches (64 => 1 object per switch, 6400 => 100).
#include <cstdio>

#include "bench/bench_common.h"

namespace distcache {
namespace {

void Run(BenchJson& json, const BenchPolicyFlag& policy) {
  PrintHeader("Figure 9(b): impact of cache size (read-only, zipf-0.99)",
              "cache size = objects across all 64 switches; log-scale x in the paper");
  if (!policy.is_default()) {
    std::printf("DistCache column runs cache policy: %s\n", policy.name());
  }
  json.Config("cache_policy", policy.name());
  std::printf("%-12s %14s %18s %16s\n", "cache size", "DistCache", "CacheReplication",
              "CachePartition");
  const std::vector<uint32_t> sizes =
      SmokeSweep<uint32_t>({64u, 6400u}, {64u, 96u, 160u, 320u, 640u, 6400u});
  std::vector<double> size_series, distcache_series, replication_series,
      partition_series;
  for (uint32_t total : sizes) {
    size_series.push_back(total);
    // 64 cache switches; 96 total => alternate 1/2 per switch, approximated by the
    // ceiling (the paper's own 96/64 is fractional too).
    const uint32_t per_switch = (total + 63) / 64;
    std::printf("%-12u", total);
    for (Mechanism m :
         {Mechanism::kDistCache, Mechanism::kCacheReplication, Mechanism::kCachePartition}) {
      ClusterConfig cfg = PaperDefaultConfig(m);
      cfg.per_switch_objects = per_switch;
      policy.Apply(&cfg);
      ClusterSim sim(cfg);
      const int width = m == Mechanism::kDistCache          ? 14
                        : m == Mechanism::kCacheReplication ? 18
                                                            : 16;
      const double saturation = sim.SaturationThroughput();
      (m == Mechanism::kDistCache          ? distcache_series
       : m == Mechanism::kCacheReplication ? replication_series
                                           : partition_series)
          .push_back(saturation);
      std::printf(" %*.0f", width, saturation);
    }
    std::printf("\n");
  }
  json.Series("cache_size", size_series);
  json.Series("distcache", distcache_series);
  json.Series("cache_replication", replication_series);
  json.Series("cache_partition", partition_series);
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "fig9b", {"cache-policy="});
  const distcache::BenchPolicyFlag policy(json.flags());
  distcache::Run(json, policy);
  return 0;
}
