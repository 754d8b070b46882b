// Extension bench: tail latency vs offered load (the paper's intro motivation —
// "overloaded nodes result in low throughput and long tail latencies" — quantified
// with an M/M/1 sojourn model per node on top of the fluid simulator).
// Shape to expect: NoCache's p99 explodes at a few percent of system capacity (the
// hot server saturates); CachePartition pushes the explosion to its hot switch;
// DistCache keeps p99 flat essentially until the servers themselves saturate.
#include <cstdio>

#include "bench/bench_common.h"
#include "cluster/latency.h"

namespace distcache {
namespace {

void Run(BenchJson& json, const BenchPolicyFlag& policy) {
  PrintHeader("Latency vs offered load (zipf-0.99, paper defaults)",
              "latency in storage-server service-time units; inf = saturated node");
  if (!policy.is_default()) {
    std::printf("DistCache column runs cache policy: %s\n", policy.name());
  }
  json.Config("cache_policy", policy.name());
  std::printf("%-10s", "load");
  for (Mechanism m : AllMechanisms()) {
    std::printf("  %-16s p50/p99", MechanismName(m).c_str());
  }
  std::printf("\n");
  const std::vector<double> load_sweep{0.05, 0.1, 0.25, 0.5, 0.75, 0.9};
  json.Series("load_fraction", load_sweep);
  std::vector<double> distcache_p99, nocache_p99;
  for (double fraction : load_sweep) {
    std::printf("%-10.2f", fraction);
    for (Mechanism m : AllMechanisms()) {
      ClusterConfig cfg = PaperDefaultConfig(m);
      policy.Apply(&cfg);
      ClusterSim sim(cfg);
      const double rate = fraction * sim.TotalServerCapacity();
      const LatencyReport report = ComputeLatencyReport(sim, rate);
      if (m == Mechanism::kDistCache) {
        distcache_p99.push_back(report.p99);
      } else if (m == Mechanism::kNoCache) {
        nocache_p99.push_back(report.p99);
      }
      std::printf("  %10.2f /%8.2f", report.p50, report.p99);
    }
    std::printf("\n");
  }
  json.Series("distcache_p99", distcache_p99);
  json.Series("no_cache_p99", nocache_p99);
  std::printf("\nhit fractions at 50%% load:\n");
  for (Mechanism m : AllMechanisms()) {
    ClusterConfig cfg = PaperDefaultConfig(m);
    policy.Apply(&cfg);
    ClusterSim sim(cfg);
    const LatencyReport report =
        ComputeLatencyReport(sim, 0.5 * sim.TotalServerCapacity());
    std::printf("  %-18s hit=%.2f overloaded=%.3f\n", MechanismName(m).c_str(),
                report.hit_fraction, report.overloaded_fraction);
  }
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "latency", {"cache-policy="});
  const distcache::BenchPolicyFlag policy(json.flags());
  distcache::Run(json, policy);
  return 0;
}
