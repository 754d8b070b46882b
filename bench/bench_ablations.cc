// Ablations of DistCache's design choices (DESIGN.md §5):
//  1. Query routing policy: PoT vs random-of-two vs always-spine.
//  2. Telemetry freshness: continuous piggybacking vs one-epoch-stale snapshots
//     (herding).
//  3. Layer shape (§3.3 non-uniform remark): 32 spines at 1x rack aggregate vs
//     8 spines at 4x vs 4 spines at 8x (same aggregate spine capacity).
//  4. Coherence cost sensitivity: per-copy server cost sweep at a fixed write ratio.
#include <cstdio>

#include "bench/bench_common.h"

namespace distcache {
namespace {

double Throughput(const ClusterConfig& cfg) {
  ClusterSim sim(cfg);
  return sim.SaturationThroughput();
}

void Run() {
  PrintHeader("Ablation 1: query routing policy (zipf-0.99, paper defaults)", "");
  {
    ClusterConfig cfg = PaperDefaultConfig(Mechanism::kDistCache);
    cfg.routing = RoutingPolicy::kPowerOfTwo;
    std::printf("  power-of-two-choices : %8.0f\n", Throughput(cfg));
    cfg.routing = RoutingPolicy::kRandom;
    std::printf("  random-of-two        : %8.0f\n", Throughput(cfg));
    cfg.routing = RoutingPolicy::kFirstChoice;
    std::printf("  always-spine         : %8.0f\n", Throughput(cfg));
  }

  PrintHeader("Ablation 2: telemetry freshness", "");
  {
    ClusterConfig cfg = PaperDefaultConfig(Mechanism::kDistCache);
    std::printf("  continuous telemetry : %8.0f\n", Throughput(cfg));
    cfg.stale_telemetry = true;
    std::printf("  1-epoch-stale (herd) : %8.0f\n", Throughput(cfg));
  }

  PrintHeader("Ablation 3: non-uniform layers (same aggregate spine capacity)", "");
  {
    struct Shape {
      uint32_t spines;
      double capacity_mult;
    };
    for (const Shape shape : {Shape{32, 1.0}, Shape{8, 4.0}, Shape{4, 8.0}}) {
      ClusterConfig cfg = PaperDefaultConfig(Mechanism::kDistCache);
      cfg.num_spine = shape.spines;
      cfg.spine_capacity = shape.capacity_mult * 32.0;
      std::printf("  %2u spines @ %2.0fx rack : %8.0f\n", shape.spines,
                  shape.capacity_mult, Throughput(cfg));
    }
  }

  PrintHeader("Ablation 4: coherence cost sensitivity (write ratio 0.1, zipf-0.99)",
              "per-copy server cost kappa; paper's protocol corresponds to a small "
              "fraction of a query's work");
  const std::vector<double> kappas =
      SmokeSweep<double>({0.25}, {0.0, 0.25, 0.5, 1.0, 2.0});
  for (double kappa : kappas) {
    ClusterConfig dist_cfg = PaperDefaultConfig(Mechanism::kDistCache);
    dist_cfg.write_ratio = 0.1;
    dist_cfg.coherence_server_cost = kappa;
    ClusterConfig repl_cfg = PaperDefaultConfig(Mechanism::kCacheReplication);
    repl_cfg.write_ratio = 0.1;
    repl_cfg.coherence_server_cost = kappa;
    std::printf("  kappa=%.2f  DistCache=%8.0f  CacheReplication=%8.0f\n", kappa,
                Throughput(dist_cfg), Throughput(repl_cfg));
  }

  PrintHeader("Ablation 5: independent vs aligned layer hashes",
              "aligned = spine partition keyed by the rack placement (no independence): "
              "a rack-hot switch pair shares all its hot objects, so the two choices "
              "collapse; independence restores the spread (key idea of §3.1)");
  {
    ClusterConfig cfg = PaperDefaultConfig(Mechanism::kDistCache);
    std::printf("  independent h0 (DistCache) : %8.0f\n", Throughput(cfg));
    ClusterConfig aligned = PaperDefaultConfig(Mechanism::kCachePartition);
    std::printf("  aligned layers (~NetCache) : %8.0f\n", Throughput(aligned));
  }
}

}  // namespace
}  // namespace distcache

int main() {
  distcache::Run();
  return 0;
}
