// Lemmas 2 & 3: the power-of-two-choices process is stationary whenever a perfect
// matching exists (Lemma 2); with a single hash function the process is unstable
// with constant probability (Lemma 3) — a "life-or-death" difference, not a
// "shave off log n" one.
//
// Workload: zipf-0.99 over k = 8m objects, clipped at the theorem's per-object bound
// max_i p_i * R = T~/2 (computed at the highest load point so every row satisfies
// the precondition). The single-hash strawman gets the same 2m unit-rate nodes in a
// single layer, so its aggregate capacity is identical. We also cross-check the
// Foss–Chernova traffic intensity rho_max (Theorem 3's condition) computed exactly.
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "common/zipf.h"
#include "sim/pok_process.h"

namespace distcache {
namespace {

struct PolicyResult {
  int stationary = 0;
  double mean_backlog = 0.0;
};

// One choice per layer of `layers`: two layers of m nodes for the two-choice
// policies, one layer of 2m nodes for single hash.
PolicyResult RunPolicy(std::vector<size_t> layers, ChoicePolicy policy,
                       double load_fraction, size_t m, int seeds) {
  PolicyResult out;
  StreamingStats backlog;
  for (uint64_t seed = 0; seed < static_cast<uint64_t>(seeds); ++seed) {
    PokProcess::Config cfg;
    cfg.num_objects = 8 * m;
    cfg.layer_sizes = layers;
    cfg.choices = layers.size();
    cfg.service_rate = 1.0;
    cfg.total_rate = load_fraction * 2.0 * static_cast<double>(m);
    cfg.zipf_theta = 0.99;
    // Precondition at the most loaded row (load 0.85): p_max * R <= T~/2.
    cfg.pmf_cap = 1.0 / (2.0 * 0.85 * 2.0 * static_cast<double>(m));
    cfg.policy = policy;
    cfg.seed = seed;
    PokProcess process(cfg);
    const auto result = process.Run(500.0);
    out.stationary += result.stationary ? 1 : 0;
    backlog.Add(result.backlog_series.back());
  }
  out.mean_backlog = backlog.mean();
  return out;
}

void Run() {
  std::printf("\n=== Lemmas 2 & 3: PoT stationarity vs single hash ===\n");
  std::printf("2m queues, k=8m capped-zipf-0.99 objects, exponential service, 10\n");
  std::printf("seeds; single-hash gets the same 2m nodes in one layer for fairness\n");
  std::printf("%-6s %-8s | %-22s | %-22s | %-22s\n", "m", "load", "PoT (stat, backlog)",
              "single (stat, backlog)", "rand-2 (stat, backlog)");
  for (size_t m : {8, 16, 32}) {
    for (double load : {0.5, 0.7, 0.85}) {
      const PolicyResult pot =
          RunPolicy({m, m}, ChoicePolicy::kShortestQueue, load, m, 10);
      const PolicyResult single =
          RunPolicy({2 * m}, ChoicePolicy::kShortestQueue, load, m, 10);
      const PolicyResult rnd = RunPolicy({m, m}, ChoicePolicy::kRandom, load, m, 10);
      std::printf("%-6zu %-8.2f | %6d/10 %12.0f | %6d/10 %12.0f | %6d/10 %12.0f\n", m,
                  load, pot.stationary, pot.mean_backlog, single.stationary,
                  single.mean_backlog, rnd.stationary, rnd.mean_backlog);
    }
  }

  std::printf("\nrho_max certificate (exact, Theorem 3 condition), m=8, capped zipf:\n");
  std::printf("rho_max < 1 must predict the simulated stationarity (Lemma 2)\n");
  for (double load : {0.6, 0.9, 1.05}) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      PokProcess::Config cfg;
      cfg.num_objects = 64;
      cfg.layer_sizes = {8, 8};
      cfg.total_rate = load * 16.0;
      cfg.zipf_theta = 0.99;
      cfg.pmf_cap = 1.0 / (2.0 * 16.0);  // p_max * R <= T~/2 even at overload
      cfg.seed = seed;
      PokProcess process(cfg);
      DiscreteDistribution dist(CappedZipfPmf(64, 0.99, cfg.pmf_cap));
      std::vector<double> rates(64);
      for (size_t i = 0; i < 64; ++i) {
        rates[i] = cfg.total_rate * dist.Pmf(i);
      }
      const double rho = process.graph().RhoMax(rates, 1.0);
      const bool stationary = process.Run(800.0).stationary;
      std::printf("  load=%.2f seed=%llu  rho_max=%.3f  simulated %-10s (predicted %s)\n",
                  load, static_cast<unsigned long long>(seed), rho,
                  stationary ? "stationary" : "UNSTABLE",
                  rho < 1.0 ? "stationary" : "unstable");
    }
  }
}

}  // namespace
}  // namespace distcache

int main() {
  distcache::Run();
  return 0;
}
