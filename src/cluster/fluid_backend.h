// SimBackend adapter over ClusterSim, the analytic fluid model.
//
// ClusterSim reasons about offered *rates*, not individual requests, so this backend
// is the licensed exception to the Run(n)-executes-n-requests contract (see
// sim/sim_backend.h): it runs the fluid simulator at 50% of aggregate server
// capacity for the configured number of telemetry epochs and reports analytic
// equivalents — per-node loads from the final epoch's LoadSnapshot, and the exact
// cache-hit probability (total pmf mass of cached keys) scaled to the nominal
// request count so BackendStats::hit_ratio() is comparable across backends.
//
// Use it to cross-validate the request-level backends: their measured hit ratios
// converge to this backend's analytic value as the request count grows.
//
// The backend walks the same merged timeline as the request engines
// (MergeTimeline in sim/engine_core.h: events and workload phases in one order,
// phases first on timestamp ties). It measures one fluid segment per stretch of
// requests between consecutive boundaries, where boundaries come from the
// sampling grid and every step's timestamp — each step thus applies to the
// underlying ClusterSim (FailSpine / RecoverSpine / RunFailureRecovery /
// SetHotShift / SetWorkload / ReallocateCacheToHotSet) exactly before its
// at_request-th request, even without sampling. Under a dynamic policy a
// kReallocateCache step changes nothing but still starts a segment (the
// request engines' plans drop it). Each segment records its achieved-throughput
// fraction and reachable-copy hit mass into BackendStats::series — the fluid
// column of the Fig. 11 engine-parity bench and of bench_hotspot_shift
// (off-grid steps add extra, self-describing series points). Re-allocation is
// analytic: the fluid controller refills with the exact hottest-first key list
// (the bound the request-level engines' sketch-observed re-allocation
// approaches).
#ifndef DISTCACHE_CLUSTER_FLUID_BACKEND_H_
#define DISTCACHE_CLUSTER_FLUID_BACKEND_H_

#include <string>

#include "cluster/cluster_sim.h"
#include "sim/sim_backend.h"

namespace distcache {

class FluidBackend : public SimBackend {
 public:
  explicit FluidBackend(const SimBackendConfig& config);

  std::string name() const override { return "fluid"; }
  BackendStats Run(uint64_t num_requests) override;

 private:
  // The analytic cache-hit probability under the configured policy: the static
  // reachable-copy mass below, or ClusterSim::PolicyHitMass() for dynamic
  // per-node policies (non-const: the policy model is lazily recomputed).
  double CachedMass();
  // Pmf mass of head keys with at least one reachable cached copy (leaf, or a
  // spine that is currently alive) — the analytic hit probability the
  // request-level engines' degraded routing converges to.
  double ReachableCachedMass() const;

  SimBackendConfig config_;
  ClusterSim sim_;
};

}  // namespace distcache

#endif  // DISTCACHE_CLUSTER_FLUID_BACKEND_H_
