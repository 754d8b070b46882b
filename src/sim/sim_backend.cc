#include "sim/sim_backend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "cluster/fluid_backend.h"
#include "sim/multiproc_backend.h"
#include "sim/sequential_backend.h"

namespace distcache {
namespace {

double MaxOverMean(const std::vector<const std::vector<double>*>& vectors) {
  double max = 0.0;
  double sum = 0.0;
  size_t n = 0;
  for (const auto* v : vectors) {
    for (double x : *v) {
      max = std::max(max, x);
      sum += x;
      ++n;
    }
  }
  if (n == 0 || sum <= 0.0) {
    return 1.0;
  }
  return max / (sum / static_cast<double>(n));
}

void AccumulateLoads(std::vector<double>& into, const std::vector<double>& from) {
  if (into.size() < from.size()) {
    into.resize(from.size(), 0.0);
  }
  for (size_t i = 0; i < from.size(); ++i) {
    into[i] += from[i];
  }
}

// Folds `from` into `into` row by row, per each field's MergeRule.
template <typename Counters>
void MergeCounters(Counters& into, const Counters& from) {
  Counters::ForEach([&](auto field, MergeRule rule, bool) {
    into.*field = rule == MergeRule::kSum ? into.*field + from.*field
                                          : std::max(into.*field, from.*field);
  });
}

}  // namespace

std::vector<double> ResolveServiceRates(const QueueModelConfig& queue,
                                        const ClusterConfig& cluster) {
  const std::vector<double>& rates = queue.service_rates;
  const size_t layers = ResolvedCacheLayers(cluster).size();
  if (rates.empty()) {
    return LayerCapacities(cluster);
  }
  if (rates.size() != 1 && rates.size() != layers) {
    std::fprintf(stderr, "invalid queue model: %zu service rates for %zu cache "
                 "layers (want 1 or one per layer)\n", rates.size(), layers);
    std::abort();
  }
  return rates.size() == 1 ? std::vector<double>(layers, rates[0]) : rates;
}

void BackendStats::CloseIntervalAt(uint64_t processed, IntervalPoint& mark) {
  IntervalPoint pt;
  pt.requests = processed - mark.requests;
  pt.dropped = dropped - mark.dropped;
  pt.delivered = pt.requests - pt.dropped;
  pt.reads = reads - mark.reads;
  pt.cache_hits = cache_hits - mark.cache_hits;
  // Per-interval latency slice; a no-op pair of empty histograms on closed-loop
  // runs (no allocation, golden-neutral).
  pt.latency = latency.DeltaSince(mark.latency);
  series.push_back(std::move(pt));
  mark.requests = processed;
  mark.dropped = dropped;
  mark.reads = reads;
  mark.cache_hits = cache_hits;
  mark.latency = latency;
}

double BackendStats::CacheImbalance() const {
  std::vector<const std::vector<double>*> layers;
  layers.reserve(cache_load.size());
  for (const std::vector<double>& layer : cache_load) {
    layers.push_back(&layer);
  }
  return MaxOverMean(layers);
}

double BackendStats::ServerImbalance() const {
  return MaxOverMean({&server_load});
}

void BackendStats::Merge(const BackendStats& other) {
  MergeCounters<BackendCounters>(*this, other);
  fault_events.insert(fault_events.end(), other.fault_events.begin(),
                      other.fault_events.end());
  if (series.size() < other.series.size()) {
    series.resize(other.series.size());
  }
  for (size_t i = 0; i < other.series.size(); ++i) {
    MergeCounters<IntervalCounters>(series[i], other.series[i]);
    series[i].latency.Merge(other.series[i].latency);
  }
  latency.Merge(other.latency);
  if (cache_load.size() < other.cache_load.size()) {
    cache_load.resize(other.cache_load.size());
  }
  for (size_t l = 0; l < other.cache_load.size(); ++l) {
    AccumulateLoads(cache_load[l], other.cache_load[l]);
  }
  AccumulateLoads(server_load, other.server_load);
}

uint64_t CurrentPeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // kilobytes elsewhere
#endif
#else
  return 0;
#endif
}

BackendKind ParseBackendKind(const std::string& name) {
  constexpr std::pair<const char*, BackendKind> kNames[] = {
      {"sequential", BackendKind::kSequential}, {"sharded", BackendKind::kSharded},
      {"fluid", BackendKind::kFluid}, {"multiproc", BackendKind::kMultiproc}};
  for (const auto& [spelling, kind] : kNames) {
    if (name == spelling) {
      return kind;
    }
  }
  // A misspelled engine must not silently run as another one.
  std::fprintf(stderr,
               "unknown backend \"%s\" (want sequential|sharded|fluid|multiproc)\n",
               name.c_str());
  std::abort();
}

std::unique_ptr<SimBackend> MakeSimBackend(BackendKind kind,
                                           const SimBackendConfig& config) {
  switch (kind) {
    case BackendKind::kSharded:
      return std::make_unique<MultiprocBackend>(
          config, MultiprocBackend::Launcher::kThreads);
    case BackendKind::kFluid:
      return std::make_unique<FluidBackend>(config);
    case BackendKind::kMultiproc:
      return std::make_unique<MultiprocBackend>(config);
    case BackendKind::kSequential:
      break;
  }
  return std::make_unique<SequentialBackend>(config);
}

}  // namespace distcache
