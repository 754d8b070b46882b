// Lemma 1 / Theorem 1 empirical check: with k hot objects hashed into two layers of
// m unit-capacity cache nodes by independent hash functions, a fractional perfect
// matching (Definition 1) supporting R = (1-eps)*alpha*m*T~ exists with high
// probability, provided max_i p_i * R <= T~/2 (the theorem's precondition).
//
// We report the empirically supportable rate R* (max-flow binary search) as a
// multiple of m*T~ for three workloads over k = m*log2(m) objects:
//   * capped zipf-0.99 — zipf clipped at the theorem's per-object bound. This is the
//     theorem's regime; R*/mT~ stays ~constant (alpha close to 1, §3.3).
//   * raw zipf-0.99    — the precondition is violated (p0 ~ 1/H(k)); R* is pinned at
//     ~2T~/p0 by the single hottest object, so R*/mT~ decays as 1/m. Shown to make
//     the role of the precondition visible, mirroring the Fig. 9(c) discussion.
//   * uniform          — easy case, near the 2m aggregate.
// Plus the expansion property (Definition 3) verified exhaustively, two-hash vs the
// single-hash strawman of Lemma 3.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "common/zipf.h"
#include "matching/cache_graph.h"

namespace distcache {
namespace {

void Run() {
  std::printf("\n=== Lemma 1: perfect matching exists at R ~= alpha*m*T~ ===\n");
  std::printf("k = m*log2(m) objects, unit-capacity nodes, 20 seeds per row; capped\n");
  std::printf("zipf satisfies max p_i * (m*T~) = T~/2 exactly\n");
  std::printf("%-6s %-6s %-16s %-16s %-14s %-16s\n", "m", "k", "capped zipf R*/m",
              "raw zipf R*/m", "uniform R*/m", "feasible@0.9m");
  for (size_t m : {8, 16, 32, 64, 128}) {
    const size_t k =
        static_cast<size_t>(static_cast<double>(m) * std::log2(static_cast<double>(m)));
    const double cap = 1.0 / (2.0 * static_cast<double>(m));  // T~/(2*m*T~)
    const std::vector<double> capped = CappedZipfPmf(k, 0.99, cap);
    ZipfDistribution zipf(k, 0.99);
    std::vector<double> raw(k);
    for (size_t i = 0; i < k; ++i) {
      raw[i] = zipf.Pmf(i);
    }
    const std::vector<double> uniform(k, 1.0 / static_cast<double>(k));

    StreamingStats capped_rate;
    StreamingStats raw_rate;
    StreamingStats unif_rate;
    int feasible = 0;
    constexpr int kSeeds = 20;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      CacheGraph g(k, {m, m}, seed);
      capped_rate.Add(g.MaxSupportedRate(capped, 1.0, 0.01) / static_cast<double>(m));
      raw_rate.Add(g.MaxSupportedRate(raw, 1.0, 0.01) / static_cast<double>(m));
      unif_rate.Add(g.MaxSupportedRate(uniform, 1.0, 0.01) / static_cast<double>(m));
      // Feasibility at R = 0.9*m*T~ for the capped-zipf load (the theorem's claim).
      std::vector<double> rates(k);
      for (size_t i = 0; i < k; ++i) {
        rates[i] = 0.9 * static_cast<double>(m) * capped[i];
      }
      feasible += g.FeasibleMatching(rates, {1.0, 1.0}) ? 1 : 0;
    }
    std::printf("%-6zu %-6zu %-16.2f %-16.2f %-14.2f %10d/%-3d\n", m, k,
                capped_rate.mean(), raw_rate.mean(), unif_rate.mean(), feasible,
                kSeeds);
  }

  std::printf("\nExpansion property (Definition 3), exhaustive over all 2^k subsets\n");
  std::printf("(k = m/2 objects: the sparse regime where Hall's condition is the\n");
  std::printf("bottleneck); single-hash fails by birthday collisions:\n");
  std::printf("%-6s %-6s %-22s %-22s\n", "m", "k", "two-hash holds", "single-hash holds");
  for (size_t m : {16, 24, 32}) {
    const size_t k = m / 2;
    int two = 0;
    int one = 0;
    constexpr int kSeeds = 20;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      two += CacheGraph(k, {m, m}, seed).HasExpansionProperty() ? 1 : 0;
      one += CacheGraph(k, {m}, seed).HasExpansionProperty() ? 1 : 0;
    }
    std::printf("%-6zu %-6zu %16d/%-3d %16d/%-3d\n", m, k, two, kSeeds, one, kSeeds);
  }
}

}  // namespace
}  // namespace distcache

int main() {
  distcache::Run();
  return 0;
}
