#include "cluster/fluid_backend.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cluster/latency.h"
#include "sim/engine_core.h"

namespace distcache {

FluidBackend::FluidBackend(const SimBackendConfig& config)
    : config_(config), sim_(config.cluster) {}

double FluidBackend::CachedMass() {
  // Static policies: the allocation-defined cached mass that is reachable given
  // the alive set. Dynamic policies: the per-policy steady-state hit model
  // (Che/FIFO/LFU fixed point composed across layers, cluster_sim.cc).
  return sim_.UsesDynamicPolicy() ? sim_.PolicyHitMass() : ReachableCachedMass();
}

double FluidBackend::ReachableCachedMass() const {
  const PopularityVector& pv = sim_.popularity();
  const std::vector<uint8_t>& spine_alive = sim_.spine_alive();
  double mass = 0.0;
  for (uint64_t rank = 0; rank < pv.head.size(); ++rank) {
    const CacheCopies copies = sim_.CopiesOf(sim_.KeyOfRank(rank));
    // Reachable iff some copy is on an alive node; only top-layer nodes die.
    bool reachable = false;
    for (uint8_t i = 0; i < copies.num && !reachable; ++i) {
      reachable = copies.nodes[i].layer != 0 || spine_alive[copies.nodes[i].index] != 0;
    }
    if (!reachable && copies.replicated_all_spines) {
      for (uint32_t s = 0; s < spine_alive.size() && !reachable; ++s) {
        reachable = spine_alive[s] != 0;
      }
    }
    if (reachable) {
      mass += pv.head[rank];
    }
  }
  return mass;
}

BackendStats FluidBackend::Run(uint64_t num_requests) {
  const auto t0 = std::chrono::steady_clock::now();
  // Open-loop mode pins the fluid arrival rate to the configured mean offered
  // load (bursts average out in the fluid limit); the historical closed-loop
  // default is half the aggregate server capacity.
  const QueueModelConfig& queue = config_.queue;
  const double offered = queue.enabled() ? queue.arrival.MeanRate()
                                         : 0.5 * sim_.TotalServerCapacity();

  BackendStats st;
  LoadSnapshot snap;
  const std::vector<TimelineStep> timeline = MergeTimeline(config_);
  if (timeline.empty() && config_.sample_interval == 0) {
    // Historical single-measurement path.
    snap = sim_.RunTicks(offered, config_.cluster.ticks_per_measurement);
    const double write_ratio = config_.cluster.write_ratio;
    const double reads =
        static_cast<double>(num_requests) * (1.0 - write_ratio);
    st.reads = static_cast<uint64_t>(std::llround(reads));
    st.cache_hits =
        static_cast<uint64_t>(std::llround(reads * CachedMass()));
  } else {
    // Timeline mode: one fluid measurement per segment, where segments are
    // delimited by the sampling grid *and* every timeline step — so each step
    // applies exactly "before the at_request-th request" like the
    // request-level engines, even with no sampling or with steps inside the final
    // interval. Off-grid steps simply contribute extra series points
    // (IntervalPoint carries its own request count, so non-uniform widths are
    // self-describing).
    std::vector<uint64_t> boundaries{0};
    if (config_.sample_interval > 0) {
      for (uint64_t t = config_.sample_interval; t < num_requests;
           t += config_.sample_interval) {
        boundaries.push_back(t);
      }
    }
    for (const TimelineStep& step : timeline) {
      if (step.at_request > 0 && step.at_request < num_requests) {
        boundaries.push_back(step.at_request);
      }
    }
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    boundaries.push_back(num_requests);
    size_t next = 0;
    for (size_t seg = 0; seg + 1 < boundaries.size(); ++seg) {
      const uint64_t start = boundaries[seg];
      const uint64_t end = boundaries[seg + 1];
      for (; next < timeline.size() && timeline[next].at_request <= start; ++next) {
        const TimelineStep& step = timeline[next];
        if (step.is_phase) {
          sim_.SetWorkload(step.phase.zipf_theta, step.phase.write_ratio);
          sim_.SetHotShift(step.phase.hot_shift);
          continue;
        }
        const ClusterEvent& event = step.event;
        switch (event.kind) {
          case ClusterEvent::Kind::kFailSpine:
            sim_.FailSpine(event.spine);
            break;
          case ClusterEvent::Kind::kRecoverSpine:
            sim_.RecoverSpine(event.spine);
            break;
          case ClusterEvent::Kind::kRunRecovery:
            sim_.RunFailureRecovery();
            break;
          case ClusterEvent::Kind::kShiftHotspot:
            sim_.SetHotShift(event.value);
            break;
          case ClusterEvent::Kind::kReallocateCache:
            sim_.ReallocateCacheToHotSet();
            break;
        }
      }
      snap = sim_.RunTicks(offered, 2);
      const double write_ratio = sim_.config().write_ratio;
      const double fraction =
          offered <= 0.0 ? 1.0 : std::clamp(snap.achieved / offered, 0.0, 1.0);
      BackendStats::IntervalPoint pt;
      pt.requests = end - start;
      pt.delivered = static_cast<uint64_t>(
          std::llround(fraction * static_cast<double>(pt.requests)));
      pt.dropped = pt.requests - pt.delivered;
      pt.reads = static_cast<uint64_t>(std::llround(
          static_cast<double>(pt.requests) * (1.0 - write_ratio)));
      pt.cache_hits = static_cast<uint64_t>(std::llround(
          static_cast<double>(pt.reads) * fraction * CachedMass()));
      st.series.push_back(pt);
      st.reads += pt.reads;
      st.cache_hits += pt.cache_hits;
      st.dropped += pt.dropped;
    }
  }
  if (queue.enabled()) {
    // Analytic latency distribution for the read mix: per-key shifted
    // exponentials (M/M/1 closed form, per-layer μ) against the end-of-run
    // loads, scaled to the read count so the histogram is sample-comparable
    // with the request-level engines'.
    const double server_rate =
        queue.server_service_rate > 0.0 ? queue.server_service_rate : 1.0;
    FillAnalyticLatency(sim_, offered,
                        ResolveServiceRates(queue, config_.cluster), server_rate,
                        queue.hop_cost, st.reads, &st.latency);
  }
  const auto t1 = std::chrono::steady_clock::now();

  st.cache_load = snap.cache;
  st.server_load = snap.server;
  st.requests = num_requests;
  st.writes = num_requests - st.reads;
  st.server_reads = st.reads - st.cache_hits;
  // Per-layer split from the fluid arrival rates (exact for read-only workloads;
  // under writes the layer loads include coherence touches, so it is approximate).
  // spine_hits is the top layer's share; leaf_hits covers every lower layer.
  double spine_arrivals = 0.0;
  double leaf_arrivals = 0.0;
  for (size_t l = 0; l < snap.cache.size(); ++l) {
    for (double x : snap.cache[l]) {
      (l == 0 ? spine_arrivals : leaf_arrivals) += x;
    }
  }
  const double cache_arrivals = spine_arrivals + leaf_arrivals;
  if (cache_arrivals > 0.0) {
    st.spine_hits = static_cast<uint64_t>(
        std::llround(static_cast<double>(st.cache_hits) * spine_arrivals / cache_arrivals));
    st.leaf_hits = st.cache_hits - st.spine_hits;
  }
  st.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return st;
}

}  // namespace distcache
