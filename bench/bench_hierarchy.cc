// §3.1 multi-layer hierarchical caching — the depth trade-off, end to end.
//
// The paper's remark: the mechanism "can be applied recursively for multi-layer
// hierarchical caching", with query routing by power-of-k-choices over the k
// layers; more layers cost more total cache nodes but each node needs a smaller
// cache. PR 4 made the request-level engines layer-count-generic, so this bench
// runs the trade-off *end to end* and cross-checks it against the analytic
// predictions that previously existed only as theory benches:
//
//   * engines — sequential and sharded runs at L = 2..4 layers with the total
//     cache budget held constant (per-node budget shrinks as 1/L): the cache hit
//     ratio must hold (the budget is what it is) and the load imbalance must stay
//     flat — deeper hierarchies spread the same hot mass over more, smaller
//     caches without losing balance;
//   * fluid — the analytic hit ratio (pmf mass of the cached set) each engine
//     must match within small tolerance;
//   * CacheGraph (matching/cache_graph.h) — max-flow feasibility: the
//     supportable fraction of the L*m*T~ aggregate under capped-Zipf demand;
//   * PokProcess (sim/pok_process.h) — queueing stationarity of the
//     power-of-k process at 85% per-node load with k = L choices.
//
// Acceptance (printed at the end): every engine hit ratio within 2% of the fluid
// analytic value, sharded-vs-sequential imbalance within 2%, and L=3/L=4
// imbalance within 15% of the two-layer baseline at one third/half the per-node
// cache.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "matching/cache_graph.h"
#include "sim/pok_process.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

struct DepthResult {
  size_t layers = 0;
  uint32_t per_node = 0;
  double seq_hit = 0.0;
  double seq_imb = 0.0;
  double shd_hit = 0.0;
  double shd_imb = 0.0;
  double fluid_hit = 0.0;
  double flow_fraction = 0.0;  // CacheGraph R*/(L*m*T~)
  int stationary = 0;          // PokProcess stationary seeds out of kSeeds
};

constexpr uint32_t kNodesPerLayer = 16;
constexpr int kSeeds = 10;

void Run(BenchJson& json) {
  PrintHeader("Multi-layer hierarchical caching (§3.1): engine vs analytic depth trade-off",
              "total cache budget fixed; per-node budget shrinks as 1/L; engines "
              "route with power-of-k over the L layers");

  ClusterConfig base = PaperDefaultConfig(Mechanism::kDistCache);
  base.num_spine = kNodesPerLayer;
  base.num_racks = kNodesPerLayer;
  base.servers_per_rack = 8;
  base.num_keys = 2'000'000;
  uint64_t requests = 2'000'000;
  uint32_t shards = 4;
  // Two-layer baseline budget: 2 x 16 x 100 = 3200 objects in total.
  const uint32_t total_budget = 2 * kNodesPerLayer * 100;
  std::vector<size_t> depth_sweep = SmokeSweep<size_t>({2, 3}, {2, 3, 4});
  if (BenchSmoke()) {
    requests = 200'000;
    shards = 2;
  }

  json.Config("nodes_per_layer", static_cast<double>(kNodesPerLayer));
  json.Config("total_budget_objects", static_cast<double>(total_budget));
  json.Config("requests", static_cast<double>(requests));
  json.Config("num_keys", static_cast<double>(base.num_keys));
  json.Config("zipf_theta", base.zipf_theta);

  std::vector<DepthResult> results;
  for (const size_t layers : depth_sweep) {
    DepthResult r;
    r.layers = layers;
    r.per_node = total_budget / (static_cast<uint32_t>(layers) * kNodesPerLayer);

    ClusterConfig cfg = base;
    cfg.cache_layers.assign(layers, LayerSpec{kNodesPerLayer, r.per_node});
    SimBackendConfig bcfg;
    bcfg.cluster = cfg;
    r.fluid_hit = MakeSimBackend(BackendKind::kFluid, bcfg)->Run(requests).hit_ratio();
    const BackendStats seq =
        MakeSimBackend(BackendKind::kSequential, bcfg)->Run(requests);
    r.seq_hit = seq.hit_ratio();
    r.seq_imb = seq.CacheImbalance();
    bcfg.shards = shards;
    const BackendStats shd = MakeSimBackend(BackendKind::kSharded, bcfg)->Run(requests);
    r.shd_hit = shd.hit_ratio();
    r.shd_imb = shd.CacheImbalance();

    // Analytic side 1: max-flow feasibility of the hashed candidate graph at this
    // depth (same regime as bench_power_of_k: m nodes/layer, 8m objects, demand
    // capped at what two copies can absorb).
    {
      const size_t objects = 8 * kNodesPerLayer;
      const std::vector<double> pmf = CappedZipfPmf(
          objects, base.zipf_theta, 1.0 / (2.0 * static_cast<double>(kNodesPerLayer)));
      StreamingStats frac;
      for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        CacheGraph graph(objects, std::vector<size_t>(layers, kNodesPerLayer), seed);
        frac.Add(graph.MaxSupportedRate(pmf, 1.0, 0.01) /
                 (static_cast<double>(layers) * kNodesPerLayer));
      }
      r.flow_fraction = frac.mean();
    }
    // Analytic side 2: power-of-k queueing stationarity at 85% per-node load.
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      PokProcess::Config pk;
      pk.num_objects = 8 * kNodesPerLayer;
      pk.layer_sizes = std::vector<size_t>(layers, kNodesPerLayer);
      pk.total_rate = 0.85 * static_cast<double>(layers * kNodesPerLayer);
      pk.zipf_theta = base.zipf_theta;
      pk.pmf_cap = 1.0 / (2.0 * 0.85 * static_cast<double>(kNodesPerLayer));
      pk.choices = layers;
      pk.seed = seed;
      r.stationary += PokProcess(pk).Run(400.0).stationary ? 1 : 0;
    }
    results.push_back(r);
  }

  std::printf("%-7s %-9s %10s %10s %10s %10s %10s %12s %11s\n", "layers",
              "objs/node", "seq hit", "shd hit", "fluid hit", "seq imb", "shd imb",
              "flow R*/agg", "stationary");
  for (const DepthResult& r : results) {
    std::printf("%-7zu %-9u %10.4f %10.4f %10.4f %10.3f %10.3f %12.2f %8d/%d\n",
                r.layers, r.per_node, r.seq_hit, r.shd_hit, r.fluid_hit, r.seq_imb,
                r.shd_imb, r.flow_fraction, r.stationary, kSeeds);
  }

  // Acceptance lines (consumed by eyeballs and CI greps alike).
  double worst_vs_fluid = 0.0;
  double worst_engine_ratio = 0.0;
  for (const DepthResult& r : results) {
    worst_vs_fluid = std::max(
        {worst_vs_fluid, std::fabs(r.seq_hit / r.fluid_hit - 1.0),
         std::fabs(r.shd_hit / r.fluid_hit - 1.0)});
    worst_engine_ratio =
        std::max(worst_engine_ratio, std::fabs(r.shd_imb / r.seq_imb - 1.0));
  }
  const double balance_drift =
      results.back().seq_imb / results.front().seq_imb;
  std::printf("\nengine-vs-fluid hit ratio deviation: %.4f (must be < 0.02)\n",
              worst_vs_fluid);
  std::printf("sharded/sequential imbalance deviation: %.4f (must be < 0.02)\n",
              worst_engine_ratio);
  std::printf("deepest/two-layer imbalance ratio (per-node cache %u -> %u objects): "
              "%.3f (must be < 1.15)\n",
              results.front().per_node, results.back().per_node, balance_drift);

  std::vector<double> ls, hit_seq, hit_shd, hit_fluid, imb_seq, imb_shd, flow, stat;
  for (const DepthResult& r : results) {
    ls.push_back(static_cast<double>(r.layers));
    hit_seq.push_back(r.seq_hit);
    hit_shd.push_back(r.shd_hit);
    hit_fluid.push_back(r.fluid_hit);
    imb_seq.push_back(r.seq_imb);
    imb_shd.push_back(r.shd_imb);
    flow.push_back(r.flow_fraction);
    stat.push_back(static_cast<double>(r.stationary));
  }
  json.Series("layers", ls);
  json.Series("hit_ratio_sequential", hit_seq);
  json.Series("hit_ratio_sharded", hit_shd);
  json.Series("hit_ratio_fluid", hit_fluid);
  json.Series("cache_imbalance_sequential", imb_seq);
  json.Series("cache_imbalance_sharded", imb_shd);
  json.Series("maxflow_rate_fraction", flow);
  json.Series("pok_stationary_seeds", stat);
  json.Metric("engine_vs_fluid_hit_deviation", worst_vs_fluid);
  json.Metric("sharded_vs_sequential_imbalance_deviation", worst_engine_ratio);
  json.Metric("deepest_vs_two_layer_imbalance", balance_drift);
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "hierarchy");
  distcache::Run(json);
  return 0;
}
