// Extension bench (§3.1 multi-layer hierarchical caching): power-of-k-choices over
// L cache layers. The paper's remark: more layers cost more total cache nodes (every
// layer must match the storage aggregate) but reduce the cache size each node needs.
// Here we show the routing side of that trade-off: with k hashed choices instead of
// 2, the same per-node load is sustained with a *more* skewed per-object cap
// (p_max * R up to k*T~/2-ish instead of T~/2), and the supportable rate per node
// rises toward the full aggregate.
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "common/zipf.h"
#include "matching/cache_graph.h"
#include "sim/pok_process.h"

namespace distcache {
namespace {

void Run() {
  std::printf("\n=== Power-of-k-choices over L cache layers (§3.1 extension) ===\n");
  std::printf("m=16 nodes per layer, k=L choices, capped-zipf-0.99 objects\n\n");

  // Part 1: supportable rate per layer-node (max-flow) as layers are added.
  std::printf("Supportable rate, as a fraction of the L*m*T~ aggregate (10 seeds):\n");
  std::printf("%-8s %-10s %-22s\n", "layers", "objects", "R*/(L*m*T~)");
  for (size_t layers : {1, 2, 3, 4}) {
    constexpr size_t kM = 16;
    const size_t k = 8 * kM;
    StreamingStats frac;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      CacheGraph g(k, std::vector<size_t>(layers, kM), seed);
      const std::vector<double> pmf =
          CappedZipfPmf(k, 0.99, 1.0 / (2.0 * static_cast<double>(kM)));
      frac.Add(g.MaxSupportedRate(pmf, 1.0, 0.01) /
               (static_cast<double>(layers) * static_cast<double>(kM)));
    }
    std::printf("%-8zu %-10zu %-22.2f\n", layers, k, frac.mean());
  }

  // Part 2: stationarity of the power-of-k process at fixed high per-node load.
  std::printf("\nQueueing stationarity at 85%% per-node load, 10 seeds, 400 time units\n");
  std::printf("(choices=1 is the single-hash strawman; more choices = more stable):\n");
  std::printf("%-10s %-14s %-14s\n", "choices", "stationary", "final backlog");
  for (size_t choices : {1, 2, 3, 4}) {
    constexpr size_t kLayers = 4;  // fixed node count; vary how many layers we USE
    constexpr size_t kM = 16;
    int stationary = 0;
    StreamingStats backlog;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      PokProcess::Config cfg;
      cfg.num_objects = 8 * kM;
      cfg.layer_sizes = std::vector<size_t>(kLayers, kM);
      cfg.total_rate = 0.85 * static_cast<double>(kLayers * kM);
      cfg.zipf_theta = 0.99;
      cfg.pmf_cap = 1.0 / (2.0 * 0.85 * static_cast<double>(kLayers * kM) /
                           static_cast<double>(kLayers));
      cfg.choices = choices;
      cfg.seed = seed;
      PokProcess process(cfg);
      const auto result = process.Run(400.0);
      stationary += result.stationary ? 1 : 0;
      backlog.Add(result.backlog_series.back());
    }
    std::printf("%-10zu %8d/10 %16.0f\n", choices, stationary, backlog.mean());
  }
}

}  // namespace
}  // namespace distcache

int main() {
  distcache::Run();
  return 0;
}
