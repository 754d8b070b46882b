#include "cluster/latency.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace distcache {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// M/M/1 sojourn rate (the exponential parameter of service + queueing time) for
// arrival rate `load` at capacity `cap`. Non-positive means saturated: the
// queue is unbounded and the sojourn distribution has no finite mass — callers
// account that mass explicitly instead of assigning a finite pseudo-latency.
double SojournRate(double load, double cap) {
  if (load >= cap * 0.999) {
    return 0.0;
  }
  return cap - load;
}

// Walks the read mix (popularity head + uniform tail) and emits one mixture
// component per head rank, read as its KeyOfRank key: `weight` of the read
// mass, a deterministic network shift of hops·`rtt`, and the sojourn rate at
// the serving node (0 = saturated).
// Cache hits go to the candidate with the least mean latency, matching the
// power-of-k router's steady state. Hops follow the request-level engines'
// convention — cache hit at layer l costs l+1 hops, a server read costs
// num_layers+1 — which reduces to the historical 1/2/3 split on the two-layer
// default topology.
template <typename Emit>
void ForEachReadComponent(ClusterSim& sim, const LoadSnapshot& snap,
                          const std::vector<double>& cache_rates,
                          double server_rate, double rtt, Emit&& emit) {
  const PopularityVector& pop = sim.popularity();
  const double server_hops = static_cast<double>(snap.cache.size()) + 1.0;
  for (uint64_t rank = 0; rank < pop.head.size(); ++rank) {
    const double weight = pop.head[rank];
    if (weight <= 0.0) {
      continue;
    }
    const uint64_t key = sim.KeyOfRank(rank);
    const CacheCopies copies = sim.CopiesOf(key);
    if (!copies.cached()) {
      emit(weight, server_hops * rtt,
           SojournRate(snap.server[sim.placement().ServerOf(key)], server_rate),
           /*hit=*/false);
      continue;
    }
    bool have = false;
    double best_mean = kInf;
    double best_shift = 0.0;
    double best_rate = 0.0;
    const auto consider = [&](double shift, double load, double cap) {
      const double rate = SojournRate(load, cap);
      const double mean = rate > 0.0 ? shift + 1.0 / rate : kInf;
      if (!have || mean < best_mean) {
        have = true;
        best_mean = mean;
        best_shift = shift;
        best_rate = rate;
      }
    };
    if (copies.replicated_all_spines) {
      consider(rtt, snap.spine()[0], cache_rates[0]);
    }
    for (uint8_t i = 0; i < copies.num; ++i) {
      const CacheNodeId node = copies.nodes[i];
      consider((static_cast<double>(node.layer) + 1.0) * rtt,
               snap.cache[node.layer][node.index], cache_rates[node.layer]);
    }
    emit(weight, best_shift, best_rate, /*hit=*/true);
  }
  // Tail keys: uniformly spread across servers; use the mean server load.
  if (pop.tail_mass > 0.0) {
    double mean_server = 0.0;
    for (double l : snap.server) {
      mean_server += l;
    }
    mean_server /= static_cast<double>(snap.server.size());
    emit(pop.tail_mass, server_hops * rtt,
         SojournRate(mean_server, server_rate), /*hit=*/false);
  }
}

struct WeightedLatency {
  double latency;
  double weight;
};

}  // namespace

LatencyReport ComputeLatencyReport(ClusterSim& sim, double offered_rate,
                                   const LatencyModelOptions& options) {
  const LoadSnapshot snap = sim.RunTicks(offered_rate, options.warmup_ticks);

  std::vector<double> cache_rates(snap.cache.size());
  for (size_t l = 0; l < cache_rates.size(); ++l) {
    cache_rates[l] = sim.layer_capacity(static_cast<uint32_t>(l));
  }

  std::vector<WeightedLatency> samples;
  double hit_weight = 0.0;
  double total_weight = 0.0;
  double overloaded_weight = 0.0;
  ForEachReadComponent(
      sim, snap, cache_rates, sim.config().server_capacity, options.network_rtt,
      [&](double weight, double shift, double rate, bool hit) {
        const double latency = rate > 0.0 ? shift + 1.0 / rate : kInf;
        samples.push_back({latency, weight});
        total_weight += weight;
        if (hit) {
          hit_weight += weight;
        }
        if (std::isinf(latency)) {
          overloaded_weight += weight;
        }
      });

  LatencyReport report;
  if (samples.empty() || total_weight <= 0.0) {
    return report;
  }
  // Infinities sort last, so a percentile rank inside the saturated mass reads
  // +infinity straight out of the walk.
  std::sort(samples.begin(), samples.end(),
            [](const WeightedLatency& a, const WeightedLatency& b) {
              return a.latency < b.latency;
            });
  double acc = 0.0;
  double mean = 0.0;
  double finite_weight = 0.0;
  const double p50_target = 0.50 * total_weight;
  const double p95_target = 0.95 * total_weight;
  const double p99_target = 0.99 * total_weight;
  for (const WeightedLatency& s : samples) {
    const double prev = acc;
    acc += s.weight;
    if (std::isfinite(s.latency)) {
      mean += s.latency * s.weight;
      finite_weight += s.weight;
    }
    if (prev < p50_target && acc >= p50_target) {
      report.p50 = s.latency;
    }
    if (prev < p95_target && acc >= p95_target) {
      report.p95 = s.latency;
    }
    if (prev < p99_target && acc >= p99_target) {
      report.p99 = s.latency;
    }
  }
  report.mean = finite_weight > 0.0 ? mean / finite_weight : kInf;
  report.hit_fraction = hit_weight / total_weight;
  report.overloaded_fraction = overloaded_weight / total_weight;
  return report;
}

void FillAnalyticLatency(ClusterSim& sim, double offered_rate,
                         const std::vector<double>& cache_rates,
                         double server_rate, double hop_cost,
                         uint64_t read_samples, LatencyHistogram* out,
                         int warmup_ticks) {
  if (read_samples == 0 || out == nullptr) {
    return;
  }
  const LoadSnapshot snap = sim.RunTicks(offered_rate, warmup_ticks);
  std::vector<double> density(LatencyHistogram::kNumBuckets, 0.0);
  double infinite_mass = 0.0;
  double total = 0.0;
  ForEachReadComponent(
      sim, snap, cache_rates, server_rate, hop_cost,
      [&](double weight, double shift, double rate, bool /*hit*/) {
        total += weight;
        if (rate <= 0.0) {
          infinite_mass += weight;
          return;
        }
        // Shifted-exponential CDF evaluated at the bucket edges; underflow
        // folds into bucket 0 and overflow into the top bucket, mirroring
        // LatencyHistogram::BucketOf's clamping of measured samples.
        double prev_cdf = 0.0;
        for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
          double cdf = 1.0;
          if (b + 1 < LatencyHistogram::kNumBuckets) {
            const double hi = LatencyHistogram::BucketLowerEdge(b + 1);
            cdf = hi <= shift ? 0.0 : 1.0 - std::exp(-rate * (hi - shift));
          }
          density[b] += weight * (cdf - prev_cdf);
          prev_cdf = cdf;
          if (1.0 - cdf <= 1e-12) {
            break;  // remaining mass < 1e-12 of the component
          }
        }
      });
  if (total <= 0.0) {
    return;
  }
  const double scale = static_cast<double>(read_samples) / total;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    const auto n = static_cast<uint64_t>(std::llround(density[b] * scale));
    if (n > 0) {
      out->Add(LatencyHistogram::BucketMidpoint(b), n);
    }
  }
  const auto n_inf = static_cast<uint64_t>(std::llround(infinite_mass * scale));
  if (n_inf > 0) {
    out->AddInfinite(n_inf);
  }
}

}  // namespace distcache
