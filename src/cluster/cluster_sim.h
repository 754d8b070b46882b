// Slotted (fluid) simulator of the full distributed switch-based caching architecture
// of Fig. 5, faithful to the paper's testbed methodology (§6.1):
//
//  * every storage server has normalized capacity 1.0 queries/s;
//  * every cache switch is rate-limited to the aggregate capacity of one storage rack
//    ("we use rate limiting to match the throughput of each emulated switch to the
//    aggregated throughput of the emulated storage servers in a rack");
//  * clients draw keys from uniform/Zipf distributions over 100M objects, with a
//    configurable write ratio;
//  * client ToRs route each read with the power-of-two-choices over the loads learned
//    from piggybacked telemetry; writes go to the primary server and run the
//    two-phase coherence protocol over all cached copies (§4.3, §6.3);
//  * reported throughput is normalized to one storage server.
//
// One tick models one telemetry epoch (1 second in the prototype). Within a tick the
// simulator processes hot keys hottest-first and routes each key's query rate to the
// candidate cache node with the smallest *accumulated* load — the fluid limit of
// queries interleaving across the epoch while telemetry keeps refreshing. Setting
// `stale_telemetry` instead freezes routing decisions on the previous epoch's loads
// (the herding ablation).
//
// Saturation throughput is the largest offered rate R such that no node's arrival
// rate exceeds its capacity — exactly the stationarity criterion the paper proves for
// the PoT process (Lemma 2) — found by binary search; optionally capped at the
// aggregate server capacity like the testbed's rate limits cap the measured value.
#ifndef DISTCACHE_CLUSTER_CLUSTER_SIM_H_
#define DISTCACHE_CLUSTER_CLUSTER_SIM_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster_config.h"
#include "common/zipf.h"
#include "core/allocation.h"
#include "kv/placement.h"
#include "sim/cluster_model.h"

namespace distcache {

// Per-tick load snapshot (arrival units, not utilization).
struct LoadSnapshot {
  // One vector per cache layer, top first; cache.front() is the spine layer and
  // cache.back() the rack-bound leaves.
  std::vector<std::vector<double>> cache;
  std::vector<double> server;
  double max_utilization = 0.0;
  // Offered minus dropped (each node completes at most its capacity).
  double achieved = 0.0;

  std::vector<double>& spine() { return cache.front(); }
  const std::vector<double>& spine() const { return cache.front(); }
  std::vector<double>& leaf() { return cache.back(); }
  const std::vector<double>& leaf() const { return cache.back(); }
};

class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& config);

  // Runs `ticks` epochs at the given offered rate; returns the last epoch's loads.
  LoadSnapshot RunTicks(double offered_rate, int ticks);

  // Max offered rate with every node stable (binary search, relative tolerance).
  double SaturationThroughput(double tolerance = 0.005);

  // Achieved (completed) throughput at a fixed offered rate — used by the failure
  // time series, where the offered rate is deliberately below saturation.
  double AchievedThroughput(double offered_rate, int ticks = 4);

  // Failure handling (§4.4 / Fig. 11).
  void FailSpine(uint32_t spine);
  void RecoverSpine(uint32_t spine);
  // Controller recovery: remap failed partitions onto alive spines. Without this,
  // objects whose spine copy died are served only by their leaf copy.
  void RunFailureRecovery() {
    recovery_ran_ = true;
    model_.SyncControllerRemap(spine_alive_);
  }

  // Dynamic-workload handling (§6.4) — the fluid counterparts of the request-level
  // engines' phased timeline (see sim/engine_core.h):
  //
  // Rotates the rank→key mapping: popularity rank r now queries key
  // (r + shift) % num_keys, so the hot mass moves onto (typically uncached) new
  // keys while the cached set stays put. (Dynamic cache policies re-derive
  // their steady-state hit model — they adapt to the new hot set on their own,
  // which is exactly the comparison the policy benches make.)
  void SetHotShift(uint64_t shift) {
    hot_shift_ = shift;
    policy_dirty_ = true;
  }
  // Switches the workload's skew/write ratio (a phase boundary): the popularity
  // vector is re-derived when theta changes.
  void SetWorkload(double zipf_theta, double write_ratio);
  // Online cache re-allocation onto the current hot set. The fluid model is
  // analytic, so "observed counts" are exact: the controller refills with the
  // true hottest-first key list under the current rotation — the upper bound the
  // request-level engines' sketch-observed re-allocation converges to.
  void ReallocateCacheToHotSet();
  // The key id at popularity rank `rank` under the current rotation.
  uint64_t KeyOfRank(uint64_t rank) const;

  // True when the configured cache policy runs the per-node dynamic runtime in
  // the request engines (this fluid engine then uses the per-policy hit model).
  bool UsesDynamicPolicy() const { return PolicyIsDynamic(config_.cache_policy); }
  // Fraction of the total request mass the per-policy steady-state hit model
  // absorbs in the cache layers (dynamic policies only; the static policies'
  // equivalent is the allocation-based reachable cached mass the fluid backend
  // computes). Lazily recomputed after workload/failure state changes.
  double PolicyHitMass();

  double TotalServerCapacity() const {
    return config_.server_capacity * static_cast<double>(num_servers());
  }
  uint32_t num_servers() const { return config_.num_racks * config_.servers_per_rack; }
  const ClusterConfig& config() const { return config_; }
  // Where `key` is cached now (post-remap; ClusterModel::CopiesOf).
  CacheCopies CopiesOf(uint64_t key) const { return model_.CopiesOf(key); }
  const Placement& placement() const { return model_.placement; }
  const PopularityVector& popularity() const { return popularity_; }
  double layer_capacity(size_t layer) const { return layer_capacity_[layer]; }
  // Per top-layer node, 1 while alive (failure injection target).
  const std::vector<uint8_t>& spine_alive() const { return spine_alive_; }

 private:
  // Candidate loads for routing: accumulated-this-tick or previous snapshot,
  // normalized by the candidate's layer capacity.
  double RoutingLoad(CacheNodeId node, const LoadSnapshot& acc) const;
  void RouteKeyReads(uint64_t key, double read_rate, const CacheCopies& copies,
                     LoadSnapshot& acc);
  void ChargeWrite(uint64_t key, double write_rate, const CacheCopies& copies,
                   LoadSnapshot& acc);
  // Per-policy fluid analytics (dynamic cache policies): steady-state per-node
  // hit probabilities via a characteristic-time fixed point (Che's
  // approximation for LRU/segmented, λT/(1+λT) for FIFO, greedy top-C for
  // LFU), composed across layers by miss-stream thinning, then one tick's
  // loads charged from the closed form. The model is scale-free in the offered
  // rate (T scales inversely with rate), so it is computed once per
  // workload/alive state and reused across the saturation search.
  void ComputePolicyModel();
  void ChargePolicyTick(double offered_rate, LoadSnapshot& acc);
  // The candidate cache node of `key` at `layer` under the dynamic-policy
  // geometry (pure hash partition / rack binding; no failure remap).
  CacheNodeId PolicyCandidate(size_t layer, uint64_t key) const;

  ClusterConfig config_;  // zipf_theta / write_ratio follow SetWorkload
  // Layers, placement, allocation and controller: the same build as the
  // request engines', so fluid-versus-request comparisons share one cluster.
  ClusterModel model_;
  PopularityVector popularity_;  // under config_.zipf_theta
  std::vector<uint8_t> spine_alive_;
  bool recovery_ran_ = true;  // partitions start mapped to their home switches
  uint64_t hot_shift_ = 0;    // current rank→key rotation (§6.4)
  std::vector<double> layer_capacity_;  // LayerCapacities(config_)
  LoadSnapshot prev_;  // previous epoch's loads (telemetry snapshot)

  // Dynamic-policy hit model state (see ComputePolicyModel).
  bool policy_dirty_ = true;
  std::vector<std::vector<double>> policy_hit_;       // [layer][head rank]
  std::vector<std::vector<double>> policy_tail_hit_;  // [layer][node]
  double policy_hit_mass_ = 0.0;
};

}  // namespace distcache

#endif  // DISTCACHE_CLUSTER_CLUSTER_SIM_H_
