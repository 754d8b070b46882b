#include "sim/sim_backend.h"

#include <algorithm>

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
  const std::vector<LayerSpec> layers = ResolvedCacheLayers(cluster);
  // Auto: the fluid model's rate-limit discipline (cluster_sim.cc) — every
  // cache node matches a rack's aggregate, with the explicit spine/leaf
  // capacity overrides honoured.
  const double rack_aggregate = static_cast<double>(cluster.servers_per_rack) *
                                cluster.server_capacity;
  std::vector<double> rates(layers.size(), rack_aggregate);
  if (cluster.spine_capacity > 0) {
    rates.front() = cluster.spine_capacity;
  }
  if (cluster.leaf_capacity > 0) {
    rates.back() = cluster.leaf_capacity;
  }
  if (queue.service_rates.size() == 1) {
    rates.assign(layers.size(), queue.service_rates[0]);  // broadcast
  } else if (!queue.service_rates.empty()) {
    for (size_t l = 0; l < rates.size() && l < queue.service_rates.size(); ++l) {
      rates[l] = queue.service_rates[l];
    }
  }
  return rates;
}

void SortEventsByRequest(std::vector<ClusterEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ClusterEvent& a, const ClusterEvent& b) {
                     return a.at_request < b.at_request;
                   });
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
  if (name == "sharded") {
    return BackendKind::kSharded;
  }
  if (name == "fluid") {
    return BackendKind::kFluid;
  }
  if (name == "multiproc") {
    return BackendKind::kMultiproc;
  }
  return BackendKind::kSequential;
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
