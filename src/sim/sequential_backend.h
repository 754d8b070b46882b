// The single-threaded request-level reference backend.
//
// Deliberately the straightforward driver around the shared EngineCore: one
// request at a time through the faithful path — inverse-CDF key sampling (a
// guide-table lookup plus a short search through the phase's head+tail CDF,
// bit-identical to a binary search over it), the core's route-table resolution,
// PoT choice with dead-node degradation, and a per-request LoadTracker refresh
// (the piggybacked-telemetry semantics of §4.2). The view is never stale, so
// SimBackendConfig::epoch_requests does not apply here.
// It is the semantic baseline the sharded backend's batched hot path is validated
// against, and the denominator of the engine-throughput comparison in
// bench_fig9c_scalability.
//
// Timeline semantics (ClusterEvent + WorkloadPhase, applied at exact request
// timestamps — see engine_core.h for the shared state machine):
//  * kFailSpine / kRunRecovery / kRecoverSpine — the §4.4 / Fig. 11 failure loop:
//    candidates blackhole, degrade, and recover via precomputed remap snapshots.
//  * WorkloadPhase boundaries and kShiftHotspot — the workload changes under the
//    cluster: the sampler is rebuilt from the phase's pmf and the route table
//    swaps to the new rank→key rotation; hit ratio collapses when the hot set
//    moves onto uncached keys (§6.4).
//  * kReallocateCache — the controller ranks the core's observed heavy-hitter
//    counts, and the core refills its copy of the allocation hottest-first
//    (core/allocation Refill), builds the new route tables, keeps them and
//    installs them (EngineCore::Reallocate): the cache-update reaction that
//    restores the hit ratio after a shift. Static policies only: a dynamic
//    policy's plan drops the step, so the hook never fires and no observer
//    runs.
#ifndef DISTCACHE_SIM_SEQUENTIAL_BACKEND_H_
#define DISTCACHE_SIM_SEQUENTIAL_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alias_sampler.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"

namespace distcache {

class SequentialBackend : public SimBackend {
 public:
  explicit SequentialBackend(const SimBackendConfig& config);

  std::string name() const override { return "sequential"; }
  BackendStats Run(uint64_t num_requests) override;

 private:
  SimBackendConfig config_;
  ClusterModel model_;
  std::vector<TimelineStep> plan_;
  std::unique_ptr<DiscreteDistribution> head_dist_;  // head ranks + one tail bucket
  // Opt-in O(hot) sampler (config.two_level_sampling): replaces head_dist_ and
  // the O(pool) pmf materialization entirely — different RNG stream, so it is
  // differentially validated, never golden-pinned.
  std::unique_ptr<TwoLevelSampler> two_level_;
  // The pre-timeline table the core routes through (plan steps at shift 0
  // share it), kept for the whole run.
  std::shared_ptr<const RouteTable> base_routes_;
  EngineCore core_;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_SEQUENTIAL_BACKEND_H_
