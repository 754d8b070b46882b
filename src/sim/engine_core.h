// EngineCore — the engine-agnostic request core shared by the request-level
// simulation backends.
//
// The sequential reference engine and every sharded worker execute the same
// per-request semantics: route-table key resolution, PoT candidate choice with
// dead-node degradation, write/coherence accounting, timeline-event application
// (failures, hot-spot shifts, online cache re-allocation, workload phases) and
// per-interval series bookkeeping. This class owns that path once; the engines
// differ only in how they drive it:
//
//   * the sequential backend runs one EngineCore, advancing it per request and
//     applying timeline actions at exact request timestamps;
//   * each sharded worker runs its own EngineCore, advancing it at batch
//     boundaries with timeline timestamps scaled to the shard's quota, and with
//     load charging into the shard's own-contribution arrays, which are its
//     telemetry partials and its quota-end loads (see multiproc_backend.h);
//   * the fluid backend keeps its analytic path but walks the same merged
//     timeline (MergeTimeline; see cluster/fluid_backend.h).
//
// Load charging is abstracted behind a Sink (AddCacheLoad/AddServerLoad): the
// sequential sink writes the global cumulative counters and refreshes the
// telemetry view in place, the sharded sink adds each charge to the shard's
// own-contribution arrays and its view. Everything else — who is a
// candidate, who wins, what a write costs, what gets dropped — is shared code, so
// a new scenario lands in one place instead of three.
//
// Timeline model: a run's reconfigurations (SimBackendConfig::events) and workload
// phases (SimBackendConfig::phases) are merged into an ordered plan by
// BuildTimelinePlan(). Steps whose effect is a pure function of the timeline
// prefix (phase switches, hot-spot shifts, failure remaps, switch
// restorations) carry precomputed immutable snapshots — a RouteSnapshot and, for
// phases, the head+tail pmf the engine rebuilds its sampler from. Every step
// due at one timestamp applies in one AdvanceTo loop, so no request routes
// between them: only the last route-changing step at each at_request carries
// a snapshot, and the steps it supersedes carry an absent one (keep the current
// routes). A snapshot is a table plus the controller's layer-0
// partition→switch map: tables name layer-0 copies by partition, and the core
// resolves every layer-0 candidate through the map it installed last (reads,
// writes, dead-node checks and coherence charges alike). Within one walk the
// cached set is fixed, so a table depends only on the hot shift: the walk
// builds one per shift it visits (the base table serves shift 0), and a
// failure remap or a switch restoration carries a new map with the current
// table. kReallocateCache steps carry no snapshot: the controller recomputes
// the allocation at runtime from *observed* per-key counts (the core's
// heavy-hitter observer), which is the paper's §6.4 cache-update loop. Only
// the static policies run it: a dynamic policy fills its own caches and never
// reads the allocation, so its plan drops the step and its core builds no
// observer. Every engine's realloc hook gathers the heavy-hitter reports and
// calls EngineCore::Reallocate, which refills the core's own copy of the
// model: ClusterModel::ReallocateFromReports re-syncs the copy's controller
// remap to the alive set at that timestamp (failures before), merges the
// reports and refills the allocation; BuildReallocRoutes then builds the
// immediate snapshot — the refilled table and the controller's map as of the
// re-sync — and rebuilds the remaining steps' snapshots against the refilled
// allocation (failures/shifts after) by the same rules, so a
// post-reallocation switch restoration keeps the refilled cached set instead
// of resurrecting the construction-time one.
//
// The core routes through non-owning RouteViews (sim/route_table.h): whoever
// builds a snapshot owns its storage while the core routes through it. The
// plan's snapshots and the base table belong to the backend (a forked shard
// reads the supervisor's, inherited); a re-allocation's belong to the core
// that built them. The model the core is constructed on is never written
// during a run: the core copies it at its first re-allocation.
#ifndef DISTCACHE_SIM_ENGINE_CORE_H_
#define DISTCACHE_SIM_ENGINE_CORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/workload.h"
#include "core/cache_policy.h"
#include "core/load_tracker.h"
#include "core/pot_router.h"
#include "sim/cluster_model.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"
#include "sketch/heavy_hitter.h"

namespace distcache {

// One entry of the merged (events + phases) timeline, in config request units.
struct TimelineStep {
  uint64_t at_request = 0;
  bool is_phase = false;
  WorkloadPhase phase;  // valid when is_phase
  ClusterEvent event;   // valid when !is_phase
  // Phase payload: the head+tail pmf under phase.zipf_theta (layout of
  // ClusterModel::head_with_tail) the engines rebuild their samplers from.
  std::shared_ptr<const std::vector<double>> pmf;
  // Immutable post-step route snapshot: the table of the step's (cached set,
  // shift) and the controller's layer-0 map after it. Absent (both null) for
  // kFailSpine, which changes no routes, for kReallocateCache, which is
  // runtime-computed, and for a route-changing step that a later step at the
  // same at_request supersedes. Converts to the RouteView an Action carries,
  // so queuing a step installs its table and map together.
  RouteSnapshot routes;
};

// Merges config.events and config.phases into one timeline ordered by
// at_request (phases before events on timestamp ties; list order otherwise
// preserved). Only orders the steps: no snapshot is built and no step is left
// out. The fluid engine walks it as is.
std::vector<TimelineStep> MergeTimeline(const SimBackendConfig& config);

// The request engines' plan: MergeTimeline, with each step's snapshot
// precomputed and coalesced, one table per shift (see the header comment).
// Under a dynamic cache policy the kReallocateCache events are left out.
// `base`, when given, is BuildRouteTable(model) of `model` as passed in; steps
// at shift 0 share it. Mutates `model`'s controller state while walking the
// failure remaps — the same end state the runtime reads back.
std::vector<TimelineStep> BuildTimelinePlan(
    const SimBackendConfig& config, ClusterModel& model,
    std::shared_ptr<const RouteTable> base = nullptr);

// True when the timeline contains a kReallocateCache step — the engines then ask
// for the core's heavy-hitter observer from the start of the run. The EngineCore
// constructor builds it only under a static policy: a dynamic policy's plan has
// no such step, so an observer would count reads nothing ever ranks.
bool TimelineNeedsObserver(const std::vector<ClusterEvent>& events);

// Total bytes of the distinct tables among the base route table and the plan's
// snapshots, each shared table counted once, plus each snapshot's map — the
// figure the engines stamp into BackendStats::route_table_bytes. Snapshots a
// runtime re-allocation builds later are not included (realloc timelines are
// small-config test territory; the plan covers the steady-state footprint).
uint64_t PlanRouteTableBytes(const RouteTable* base,
                             const std::vector<TimelineStep>& plan);

class EngineCore {
 public:
  // A TimelineStep localized to one engine stream's clock. `at_local` is the
  // step's at_request scaled to the stream's share of the run (identity for the
  // sequential engine, quota/num_requests for a shard).
  struct Action {
    double at_local = 0.0;
    bool is_phase = false;
    WorkloadPhase phase;
    ClusterEvent event;
    std::shared_ptr<const std::vector<double>> pmf;
    // The post-step route snapshot; absent for steps that change no routes.
    // Its storage (the plan's snapshots, or the core's latest re-allocation
    // ones) outlives every use of the view.
    RouteView routes;
  };

  // Rebuild-the-sampler callback, invoked after the core switched phase state.
  // Must not consume engine RNG (streams stay deterministic across phase counts).
  using PhaseHook =
      std::function<void(const WorkloadPhase&,
                         const std::shared_ptr<const std::vector<double>>& pmf)>;
  // kReallocateCache callback: gathers the heavy-hitter reports and calls
  // Reallocate. The sequential engine passes its own ObservedCounts(); every
  // shard of the shard runtime the reports it gathered through the arena.
  using ReallocateHook = std::function<void()>;
  using HeavyHitterReports =
      std::vector<std::vector<std::pair<uint64_t, uint32_t>>>;

  // `model` outlives the core and is never written through it (a
  // re-allocation refills the core's own copy). `rng_seed` /
  // `router_seed` preserve each engine's historical stream derivation.
  // `enable_observer` asks for the heavy-hitter observer; it is built only
  // under a static policy (a dynamic one has no re-allocation to feed).
  EngineCore(const ClusterModel* model, uint64_t rng_seed, uint64_t router_seed,
             bool enable_observer);

  // ---- run wiring ----------------------------------------------------------
  void BindStats(BackendStats* stats) { stats_ = stats; }
  void SetPhaseHook(PhaseHook hook) { phase_hook_ = std::move(hook); }
  void SetReallocateHook(ReallocateHook hook) { realloc_hook_ = std::move(hook); }
  // Installs a route snapshot; an absent view keeps the current routes, and a
  // view without a map keeps the current layer-0 map. The caller keeps the
  // table alive while requests route through it (see RouteView); the map is
  // copied. Ranks at or beyond the view's hot_len take the computed uncached
  // fallback.
  void SetRoutes(RouteView routes) {
    if (routes.present) {
      routes_ = routes;
    }
    if (routes.spine_of_partition != nullptr) {
      std::copy_n(routes.spine_of_partition, spine_of_partition_.size(),
                  spine_of_partition_.begin());
    }
  }
  // Interval-series step in local request units (0 disables series bookkeeping).
  // Resets the interval mark, so call once per Run before processing.
  void SetSampleStep(double step) {
    sample_step_ = step > 0.0 ? step : 0.0;
    next_sample_at_ = sample_step_;
    interval_mark_ = BackendStats::IntervalPoint{};
  }
  // Enables the open-loop virtual-time layer (sim_backend.h QueueModelConfig
  // comment: Poisson arrivals, per-node FIFO queues, per-layer service rates,
  // hop costs). `time_seed` derives the dedicated time RNG — a separate stream
  // from the request RNG, so the key/write draws of an open-loop run are
  // bit-identical to the closed-loop run of the same config (tested). No-op
  // when the arrival process is disabled; must be called before processing.
  void ConfigureOpenLoop(const QueueModelConfig& queue, uint64_t time_seed);
  // Actions must be queued in at_local order (the plan/multicast order).
  void QueueAction(Action action) { actions_.push_back(std::move(action)); }
  // Drops queued/applied actions so a Run can re-queue its plan. Note this does
  // NOT rewind routing/phase/failure state to the pre-timeline snapshot — a
  // backend that already replayed a timeline is not a fresh backend. Every
  // driver in this repo constructs a new backend per Run; do the same rather
  // than re-Running one whose timeline mutated state.
  void ClearActions() {
    actions_.clear();
    next_action_ = 0;
  }
  // Index of the next unapplied action — inside the reallocate hook this is the
  // first post-reallocation step, the start of the suffix whose snapshots
  // Reallocate replaces.
  size_t next_action_index() const { return next_action_; }

  // The kReallocateCache step (§4.3 cache update), called from the realloc
  // hook with the queued actions aligned 1:1 with `plan`. At its first call
  // the core deep-copies its model; every call refills that copy from
  // `reports` (ClusterModel::ReallocateFromReports at the core's alive set),
  // builds the snapshots (BuildReallocRoutes) and installs them: [0] with
  // SetRoutes, the rest on the pending actions. The core owns the snapshots
  // until its next re-allocation replaces them.
  void Reallocate(const std::vector<TimelineStep>& plan,
                  const HeavyHitterReports& reports);

  // Applies every queued action with at_local <= processed (events fire just
  // before the request that reaches their timestamp), then closes any due sample
  // intervals. Engines call this per request (sequential) or per batch (sharded).
  void AdvanceTo(uint64_t processed) {
    const double now = static_cast<double>(processed);
    while (next_action_ < actions_.size() &&
           actions_[next_action_].at_local <= now) {
      ApplyAction(actions_[next_action_++]);
    }
    if (sample_step_ > 0.0) {
      while (now >= next_sample_at_) {
        stats_->CloseIntervalAt(processed, interval_mark_);
        next_sample_at_ += sample_step_;
      }
    }
  }

  // Closes the trailing partial interval at end of run.
  void FinishSeries(uint64_t processed) {
    if (sample_step_ > 0.0 && processed > interval_mark_.requests) {
      stats_->CloseIntervalAt(processed, interval_mark_);
    }
  }

  // ---- hot path ------------------------------------------------------------
  // Executes one request sampled as head rank `bucket` (== model->pool for the
  // aggregated tail bucket). Charges loads through `sink`:
  //   sink.AddCacheLoad(CacheNodeId, double)  — cache switch charge; the sink
  //       owns the telemetry-view update policy (see class comment);
  //   sink.AddServerLoad(uint32_t, double)    — storage server charge.
  template <typename Sink>
  void Process(Sink& sink, uint32_t bucket);

  // The dynamic-policy variant behind the single dispatch branch in Process()
  // (hot-path rule: the static path pays exactly one perfectly-predicted
  // compare, keeping the golden runs bit-identical and the throughput within
  // the gate). Process() itself serves both static policies — static-topk is
  // distcache with first-choice routing, resolved into router_ at construction
  // (EffectiveRouting); ProcessPolicy drives the per-node dynamic cache runtime
  // (core/cache_policy.h).
  template <typename Sink>
  void ProcessPolicy(Sink& sink, uint32_t bucket);

  // Batched hot path: executes `count` requests whose sampled buckets were
  // staged into `buckets` up front (the batch's stochastic input as a flat
  // array), software-prefetching the route-table entries of upcoming requests
  // a fixed distance ahead under a static policy. Requests execute through Process()
  // in order, so the batch is bit-identical to the per-request loop in every
  // engine state (pinned by the sharded golden test); the implementation
  // comment records why a deeper two-pass SoA staging measured slower and was
  // rejected.
  template <typename Sink>
  void ProcessBatch(Sink& sink, const uint32_t* buckets, uint32_t count);

  // ---- open-loop virtual time ----------------------------------------------
  // Hot-path rule (same discipline as the policy dispatch byte): each helper
  // opens with one never-taken compare against the construction-time open_loop_
  // byte, so the closed-loop path pays a perfectly-predicted branch, consumes
  // no time RNG, and stays bit-identical to the pre-layer goldens. When the
  // layer is on, exactly one completion terminal (OpenLoopServer / OpenLoopCache)
  // runs per delivered request; drops advance the clock but record nothing.
  bool open_loop() const { return open_loop_ != 0; }
  double virtual_now() const { return vnow_; }

  // Poisson arrival: advances the virtual clock by an exponential gap at the
  // (burst-modulated) instantaneous rate. Called once per request, before any
  // routing work, so the arrival process is independent of the request mix.
  void OpenLoopArrive() {
    if (__builtin_expect(open_loop_ == 0, 1)) {
      return;
    }
    vnow_ += time_rng_.NextExponential(arrival_.RateAt(vnow_));
  }
  // Completion at the primary storage server: full-descent hop count.
  void OpenLoopServer(uint32_t server) {
    if (__builtin_expect(open_loop_ == 0, 1)) {
      return;
    }
    RecordDeparture(server_free_at_[server], server_rate_,
                    static_cast<double>(model_->num_layers()) + 1.0);
  }
  // Completion at a cache switch: a layer-l hit is l+1 hops from the client.
  void OpenLoopCache(CacheNodeId node) {
    if (__builtin_expect(open_loop_ == 0, 1)) {
      return;
    }
    RecordDeparture(cache_free_at_[node.layer][node.index],
                    layer_rate_[node.layer],
                    static_cast<double>(node.layer) + 1.0);
  }

  // True when the request must be dropped: pre-recovery ECMP transit through one
  // of the dead spine switches. Consumes RNG only while failures are active.
  bool TransitBlackholed() {
    return !recovery_ran_ && dead_spines_ > 0 &&
           rng_.NextBounded(model_->cfg.num_spine) < dead_spines_;
  }

  // ---- state shared with the engines ---------------------------------------
  Rng& rng() { return rng_; }
  LoadTracker& view() { return view_; }
  double write_ratio() const { return write_ratio_; }
  uint64_t hot_shift() const { return hot_shift_; }
  uint32_t dead_spines() const { return dead_spines_; }
  const std::vector<uint8_t>& spine_alive() const { return spine_alive_; }

  // Failure degradation targets the top ("spine") layer: a candidate is
  // blackholed iff it is a dead top-layer node. Lower layers never die (the leaf
  // layer is rack-bound; mid layers inherit the same assumption for now).
  // `node` is a resolved switch (Resolve), not a partition.
  bool NodeDead(CacheNodeId node) const {
    return node.layer == 0 && dead_spines_ > 0 && !spine_alive_[node.index];
  }

  // The observer's per-key heavy-hitter reports since the last phase boundary /
  // re-allocation, hottest-first — what the controller re-allocates from. Empty
  // when the observer is disabled.
  std::vector<std::pair<uint64_t, uint32_t>> ObservedCounts() const {
    return observer_ ? observer_->TopReports()
                     : std::vector<std::pair<uint64_t, uint32_t>>{};
  }

  // The dynamic-policy runtime (null for the static policies) — tests read
  // its counters and node caches.
  const CachePolicyRuntime* policy_runtime() const { return policy_.get(); }

 private:
  void ApplyAction(const Action& action);
  // A route candidate as the node that serves it: a layer-0 candidate is
  // stored as its h0 partition and resolves through the installed map.
  CacheNodeId Resolve(uint32_t packed) const {
    const CacheNodeId node = UnpackCandidate(packed);
    return node.layer == 0 ? CacheNodeId{0, spine_of_partition_[node.index]}
                           : node;
  }
  // FIFO queue discipline at one station: the request starts service when both
  // it and the node are ready, holds the node for an exponential service time,
  // and its end-to-end latency is the network hops plus everything spent at the
  // node (wait + service).
  void RecordDeparture(double& free_at, double rate, double hops) {
    const double start = free_at > vnow_ ? free_at : vnow_;
    const double depart = start + time_rng_.NextExponential(rate);
    free_at = depart;
    stats_->latency.Add(hops * hop_cost_ + (depart - vnow_));
  }
  // Read terminals shared by Process and ProcessPolicy: each read outcome is
  // dropped, served by a server or served by a cache node here and nowhere
  // else. Server reads and below-top hits transit an ECMP-chosen spine on the
  // way down (§3.4); a top-layer hit is absorbed by its alive serving switch
  // and cannot be blackholed.
  bool ReadBlackholed(bool hit, CacheNodeId node) {
    if ((!hit || node.layer != 0) && TransitBlackholed()) {
      ++stats_->dropped;
      return true;
    }
    return false;
  }
  template <typename Sink>
  void ServerRead(Sink& sink, uint32_t server) {
    OpenLoopServer(server);
    sink.AddServerLoad(server, 1.0);
    ++stats_->server_reads;
  }
  template <typename Sink>
  void CacheHit(Sink& sink, CacheNodeId node) {
    OpenLoopCache(node);
    sink.AddCacheLoad(node, 1.0);
    ++stats_->cache_hits;
    ++(node.layer == 0 ? stats_->spine_hits : stats_->leaf_hits);
  }
  void ResetObserver() {
    if (observer_) {
      observer_->NewEpoch();
    }
  }

  const ClusterModel* model_;
  Rng rng_;
  LoadTracker view_;
  PotRouter router_;
  BackendStats* stats_ = nullptr;

  // The current route snapshot. Buckets at or beyond its hot_len are uncached
  // by construction and take the no-entry fallback in Process (dense
  // tables make it the pool, so the branch is never taken). Its map pointer
  // is unused: the installed map lives in spine_of_partition_.
  RouteView routes_;
  // The installed layer-0 partition→switch map (num_spine words; identity
  // until a snapshot carries another).
  std::vector<uint32_t> spine_of_partition_;

  // Current workload-phase state.
  double write_ratio_;
  uint64_t hot_shift_ = 0;

  // Failure-degradation state (see sequential_backend.h for the semantics).
  std::vector<uint8_t> spine_alive_;
  uint32_t dead_spines_ = 0;
  bool recovery_ran_ = true;  // partitions start mapped to their home switches

  // Controller-side popularity observer driving kReallocateCache (§6.4); null
  // under a dynamic policy or a timeline without the step. The sketch is wider than the data-plane one (§5): the simulated controller
  // aggregates reports in software, so we trade memory for clean separation of
  // hot keys from sampled-tail noise, and let counters exceed 16 bits.
  std::unique_ptr<HeavyHitterDetector> observer_;

  std::vector<Action> actions_;
  size_t next_action_ = 0;

  double sample_step_ = 0.0;
  double next_sample_at_ = 0.0;
  BackendStats::IntervalPoint interval_mark_;

  std::vector<CacheNodeId> scratch_candidates_;  // kReplicated slow path

  // Open-loop virtual-time state (ConfigureOpenLoop). time_rng_ is a dedicated
  // stream so enabling the layer never perturbs the key/write draws; free_at
  // arrays are per-node FIFO horizons in virtual time.
  uint8_t open_loop_ = 0;
  Rng time_rng_{0};
  ArrivalConfig arrival_;
  double hop_cost_ = 0.2;
  double vnow_ = 0.0;
  double server_rate_ = 1.0;
  std::vector<double> layer_rate_;                   // per cache layer, top first
  std::vector<std::vector<double>> cache_free_at_;   // [layer][node]
  std::vector<double> server_free_at_;

  // Cache-policy dispatch (set once at construction from cfg.cache_policy; the
  // static path tests one always-equal byte and falls through).
  enum PolicyMode : uint8_t { kStaticPot = 0, kDynamicPolicy = 1 };
  uint8_t policy_mode_ = kStaticPot;
  std::unique_ptr<CachePolicyRuntime> policy_;  // kDynamicPolicy only
  std::vector<CacheNodeId> scratch_copies_;     // write-through copy list
  std::vector<uint32_t> scratch_servers_;       // dirty write-back targets

  PhaseHook phase_hook_;
  ReallocateHook realloc_hook_;
  // Re-allocation state (Reallocate), last so the hot-path members keep
  // their offsets: the core's deep copy of *model_, taken at its first
  // re-allocation, and the snapshots of the latest refill.
  std::unique_ptr<ClusterModel> realloc_model_;
  std::vector<RouteSnapshot> realloc_routes_;
};

template <typename Sink>
void EngineCore::Process(Sink& sink, uint32_t bucket) {
  // Open-loop arrival first (a no-op compare when the layer is off): every
  // request's arrival timestamp exists before any routing decision, in both
  // request paths, so the arrival process is policy-independent.
  OpenLoopArrive();
  // Policy dispatch: one compare against a construction-time constant — under
  // a static policy it is never taken and costs a perfectly-predicted
  // not-taken branch, preserving the pre-policy goldens bit-for-bit.
  if (__builtin_expect(policy_mode_ == kDynamicPolicy, 0)) {
    ProcessPolicy(sink, bucket);
    return;
  }
  const ClusterConfig& cc = model_->cfg;
  BackendStats& st = *stats_;
  const bool is_tail = bucket == model_->pool;
  const bool is_write = write_ratio_ > 0.0 && rng_.NextBernoulli(write_ratio_);

  // The primary server is a pure function of the key (Placement::ServerOf),
  // evaluated only where a server is charged: a cache hit never needs it.
  uint64_t key;
  const RouteEntry* entry = nullptr;
  if (is_tail) {
    const uint64_t rank =
        model_->pool + rng_.NextBounded(cc.num_keys - model_->pool);
    key = KeyOfRank(rank, hot_shift_, cc.num_keys);
    // Tail keys are treated as uncached even right after a hot-spot shift, when
    // the formerly-hot (still cached, now tail) keys would briefly hit: their
    // per-key mass is ~1/num_keys, a vanishing correction the fluid model ignores
    // for the same reason.
  } else {
    key = KeyOfRank(bucket, hot_shift_, cc.num_keys);
    // Compact-table fallback: ranks past the stored hot prefix are uncached by
    // construction, so `entry` stays null and the request flows down the
    // uncached path, bit-identical to reading a dense kUncached entry (no RNG
    // is consumed either way).
    if (__builtin_expect(bucket < routes_.hot_len, 1)) {
      entry = &routes_.entries[bucket];
    }
  }

  if (is_write) {
    // Writes reach the primary through an ECMP-chosen spine; a pre-recovery dead
    // spine blackholes its share (§4.4). Coherence touches only alive copies.
    ++st.writes;
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    size_t num_copies = 0;
    if (entry != nullptr) {
      if (entry->kind == RouteEntry::kCached) {
        // One cached copy per layer, ascending; coherence touches the alive ones.
        const uint32_t inline_cands[2] = {static_cast<uint32_t>(entry->c0),
                                          static_cast<uint32_t>(entry->c1)};
        const uint32_t* cands =
            entry->num <= 2 ? inline_cands : routes_.overflow + entry->c1;
        for (uint8_t i = 0; i < entry->num; ++i) {
          const CacheNodeId node = Resolve(cands[i]);
          if (!NodeDead(node)) {
            ++num_copies;
            sink.AddCacheLoad(node, cc.coherence_switch_cost);
          }
        }
      } else if (entry->kind == RouteEntry::kReplicated) {
        num_copies = static_cast<size_t>(cc.num_spine - dead_spines_) +
                     static_cast<size_t>(entry->num);
        for (uint32_t s = 0; s < cc.num_spine; ++s) {
          if (spine_alive_[s]) {
            sink.AddCacheLoad({0, s}, cc.coherence_switch_cost);
          }
        }
        if (entry->num > 0) {
          sink.AddCacheLoad(UnpackCandidate(entry->c0), cc.coherence_switch_cost);
        }
      }
    }
    const uint32_t server = model_->placement.ServerOf(key);
    OpenLoopServer(server);
    sink.AddServerLoad(server,
                       1.0 + cc.coherence_server_cost * static_cast<double>(num_copies));
    return;
  }

  ++st.reads;
  if (observer_) {
    // Controller-side popularity observation (per-object hit counters for cached
    // keys, the heavy-hitter sketch for the rest — folded into one detector).
    observer_->Observe(key);
  }
  // Blackholed candidates degrade the power-of-k choice set: a dead top-layer
  // copy is skipped (k shrinks by one), and a key whose every copy is dead falls
  // back to the primary server like an uncached key. The router picks among
  // the alive copies by the run's routing (EffectiveRouting: least-loaded
  // under distcache, the first alive copy under static-topk).
  bool hit = false;
  CacheNodeId node;
  if (entry == nullptr || entry->kind == RouteEntry::kUncached) {
    // Served by the primary server.
  } else if (entry->kind == RouteEntry::kCached && entry->num == 2) {
    // The two-layer fast path: PoT between the (at most one dead) candidates.
    // Only the first can be a layer-0 partition (ascending layers).
    const CacheNodeId c0 = Resolve(entry->c0);
    const CacheNodeId c1 = UnpackCandidate(entry->c1);
    const bool dead0 = NodeDead(c0);
    node = dead0 ? c1 : NodeDead(c1) ? c0 : router_.ChoosePair(c0, c1);
    hit = true;
  } else if (entry->kind == RouteEntry::kCached && entry->num == 1) {
    node = Resolve(entry->c0);
    hit = !NodeDead(node);
  } else {
    // Power-of-k (k > 2 copies, or every spine replica plus the leaf copy of
    // a kReplicated key): the alive candidate subset.
    auto& cands = scratch_candidates_;
    cands.clear();
    if (entry->kind == RouteEntry::kCached) {
      const uint32_t* run = routes_.overflow + entry->c1;
      for (uint8_t i = 0; i < entry->num; ++i) {
        const CacheNodeId c = Resolve(run[i]);
        if (!NodeDead(c)) {
          cands.push_back(c);
        }
      }
    } else {  // kReplicated
      for (uint32_t s = 0; s < cc.num_spine; ++s) {
        if (spine_alive_[s]) {
          cands.push_back({0, s});
        }
      }
      if (entry->num > 0) {
        cands.push_back(UnpackCandidate(entry->c0));
      }
    }
    hit = !cands.empty();
    if (hit) {
      node = cands[router_.Choose(cands)];
    }
  }
  if (ReadBlackholed(hit, node)) {
    return;
  }
  if (hit) {
    CacheHit(sink, node);
  } else {
    ServerRead(sink, model_->placement.ServerOf(key));
  }
}

template <typename Sink>
void EngineCore::ProcessPolicy(Sink& sink, uint32_t bucket) {
  // The dynamic-policy request path. Same stream derivation, coherence costs,
  // transit-blackhole and counter semantics as the static path; hits and
  // admissions come from the per-node policy runtime instead of the
  // precomputed route table. The probe → drop-check → commit split keeps
  // blackholed requests from perturbing replacement state (they never arrive).
  const ClusterConfig& cc = model_->cfg;
  BackendStats& st = *stats_;
  const bool is_tail = bucket == model_->pool;
  const bool is_write = write_ratio_ > 0.0 && rng_.NextBernoulli(write_ratio_);

  uint64_t key;
  if (is_tail) {
    const uint64_t rank =
        model_->pool + rng_.NextBounded(cc.num_keys - model_->pool);
    key = KeyOfRank(rank, hot_shift_, cc.num_keys);
  } else {
    key = KeyOfRank(bucket, hot_shift_, cc.num_keys);
  }
  // The key's tag, server and per-layer candidates, hashed once for every
  // runtime call below.
  const CachePolicyRuntime::KeyGeometry geo = policy_->Locate(key);
  const uint32_t server = geo.server;

  if (is_write) {
    ++st.writes;
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    scratch_servers_.clear();
    if (policy_->config().write == WritePolicy::kWriteBack) {
      const std::optional<CacheNodeId> absorbed =
          policy_->WriteBack(geo, scratch_servers_);
      if (absorbed) {
        OpenLoopCache(*absorbed);
        sink.AddCacheLoad(*absorbed, 1.0);
        ++st.cache_write_hits;
      } else {
        OpenLoopServer(server);
        sink.AddServerLoad(server, 1.0);
      }
    } else {
      scratch_copies_.clear();
      policy_->WriteThrough(geo, scratch_copies_, scratch_servers_);
      for (const CacheNodeId copy : scratch_copies_) {
        sink.AddCacheLoad(copy, cc.coherence_switch_cost);
      }
      OpenLoopServer(server);
      sink.AddServerLoad(
          server, 1.0 + cc.coherence_server_cost *
                            static_cast<double>(scratch_copies_.size()));
    }
    for (const uint32_t wb_server : scratch_servers_) {
      sink.AddServerLoad(wb_server, 1.0);
      ++st.writebacks;
    }
    return;
  }

  ++st.reads;
  const CachePolicyRuntime::ReadProbe probe = policy_->Probe(geo);
  if (ReadBlackholed(probe.hit, probe.node)) {
    return;
  }
  scratch_servers_.clear();
  if (probe.hit) {
    policy_->CommitHit(geo, probe.node, scratch_servers_);
  } else {
    policy_->CommitMiss(geo, scratch_servers_);
  }
  for (const uint32_t wb_server : scratch_servers_) {
    sink.AddServerLoad(wb_server, 1.0);
    ++st.writebacks;
  }
  if (probe.hit) {
    CacheHit(sink, probe.node);
  } else {
    ServerRead(sink, server);
  }
}

template <typename Sink>
void EngineCore::ProcessBatch(Sink& sink, const uint32_t* buckets, uint32_t count) {
  // One fused pass over the sampled bucket stream (the SoA staging of the
  // batch: all stochastic inputs are materialized in `buckets` before any
  // request executes), with route-table entries software-prefetched a fixed
  // distance ahead — the bucket stream is the only input to the entry address,
  // so the line is warm by the time the branch tree needs it. Requests run
  // through Process() in order, so this is bit-identical to the per-request
  // loop in every engine state, including active failure windows.
  //
  // A fully staged two-pass variant (resolve key/server/entry into SoA arrays,
  // then route) was measured at ~10-15% *slower* than this fused loop on the
  // reference hardware: the split serializes the RNG and routing dependency
  // chains the out-of-order core otherwise overlaps across iterations, and the
  // staging stores add traffic without removing any misses the prefetch does
  // not already hide. Re-measure with bench_scaling before re-staging.
  constexpr uint32_t kPrefetchDistance = 16;
  const RouteEntry* const route_data = routes_.entries;
  const uint32_t hot_len = routes_.hot_len;
  // Compact tables leave buckets past the hot prefix (and the tail bucket)
  // with no entry to fetch; clamp those to entry 0 — one cmov, and the
  // formed address stays inside the allocation.
  const auto prefetch_entry = [route_data, hot_len](uint32_t bucket) {
    __builtin_prefetch(&route_data[bucket < hot_len ? bucket : 0], 0, 1);
  };
  // A dynamic policy never reads the route table (ProcessPolicy), so its
  // batches prefetch nothing.
  const uint32_t prefetch_end = policy_mode_ == kDynamicPolicy ? 0 : count;
  const uint32_t lead =
      prefetch_end < kPrefetchDistance ? prefetch_end : kPrefetchDistance;
  for (uint32_t i = 0; i < lead; ++i) {
    prefetch_entry(buckets[i]);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (i + kPrefetchDistance < prefetch_end) {
      prefetch_entry(buckets[i + kPrefetchDistance]);
    }
    Process(sink, buckets[i]);
  }
}

// The route snapshots of a re-allocation, built against the model's *current*
// (just refilled) allocation at the core's clock: [0] the immediate snapshot —
// the table at the core's hot shift and the controller's map as the refill
// left it, which differs from the core's when the refill falls between a
// failure and its remap — then one (possibly absent) snapshot per pending
// plan step, aligned with plan[core.next_action_index()..], so failure/shift
// steps after a kReallocateCache route the refilled cached set instead of the
// construction-time one. The suffix is coalesced like the plan, and steps at
// the core's shift share [0]'s table (never a table built before the refill).
// Mutates the model's controller state to the end-of-plan remap, exactly like
// BuildTimelinePlan. EngineCore::Reallocate installs [0] with SetRoutes and
// the rest on the pending actions.
std::vector<RouteSnapshot> BuildReallocRoutes(
    const std::vector<TimelineStep>& plan, const EngineCore& core,
    ClusterModel& model);

}  // namespace distcache

#endif  // DISTCACHE_SIM_ENGINE_CORE_H_
