#include "sim/engine_core.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_set>

namespace distcache {

namespace {

// Observer sizing: the simulated controller aggregates switch reports in
// software, so the sketch is deliberately wider than the data-plane defaults
// (§5: 4×64K×16bit). Width 2^18 keeps per-cell collision mass ≪ 1 for the
// request windows the benches run, and threshold 2 admits every key seen twice
// within an observation window — sampled-tail keys essentially never are, head
// keys almost always are.
HeavyHitterDetector::Config ObserverConfig(uint64_t pool) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.width = 1 << 18;
  cfg.sketch.counter_max = std::numeric_limits<uint32_t>::max();
  cfg.report_threshold = 2;
  cfg.max_reports_per_epoch = static_cast<size_t>(2 * pool);
  return cfg;
}

// Applies one plan step's transition to (alive, shift, model) — the single
// source of truth for how a step changes the controller state — and returns
// whether the step installs routes. kFailSpine keeps clients on their stale
// routes until recovery; kReallocateCache's tables are computed at runtime.
// Shared by the construction-time plan walk and the post-reallocation rebuild
// (BuildReallocRoutes) so the two can never diverge.
bool AdvancePlanState(const TimelineStep& step, ClusterModel& model,
                      std::vector<uint8_t>& alive, uint64_t& shift) {
  if (step.is_phase) {
    shift = step.phase.hot_shift;
    return true;
  }
  switch (step.event.kind) {
    case ClusterEvent::Kind::kFailSpine:
      if (step.event.spine < alive.size()) {
        alive[step.event.spine] = 0;
      }
      return false;
    case ClusterEvent::Kind::kRecoverSpine:
      if (step.event.spine < alive.size()) {
        alive[step.event.spine] = 1;
      }
      model.SyncControllerRemap(alive);
      return true;
    case ClusterEvent::Kind::kRunRecovery:
      model.SyncControllerRemap(alive);
      return true;
    case ClusterEvent::Kind::kShiftHotspot:
      shift = step.event.value;
      return true;
    case ClusterEvent::Kind::kReallocateCache:
      break;
  }
  return false;
}

// The snapshot of the walk's state: `table` and the controller's map now.
RouteSnapshot Snapshot(std::shared_ptr<const RouteTable> table,
                       const ClusterModel& model) {
  return {std::move(table), std::make_shared<const std::vector<uint32_t>>(
                                model.controller.spine_of_partition())};
}

// Walks plan[from, end) from (alive, shift) and returns each step's snapshot.
// All due steps apply in one AdvanceTo loop, so no request routes between
// steps that share an at_request: only the last route-changing step of each
// timestamp gets a snapshot, of the state after the whole timestamp; the
// others get absent ones. Within a walk the cached set is fixed and tables
// name layer-0 copies by partition, so a table is a function of the hot shift
// alone: the walk builds one per shift it visits — `start`, the table of the
// starting shift when given, included — and every snapshot pairs it with the
// controller's map after its timestamp.
std::vector<RouteSnapshot> WalkSnapshots(const std::vector<TimelineStep>& plan,
                                         size_t from, ClusterModel& model,
                                         std::vector<uint8_t> alive,
                                         uint64_t shift,
                                         std::shared_ptr<const RouteTable> start) {
  std::vector<std::pair<uint64_t, std::shared_ptr<const RouteTable>>> tables;
  if (start != nullptr) {
    tables.emplace_back(shift, std::move(start));
  }
  const auto table_at = [&](uint64_t at) {
    for (const auto& [built_shift, table] : tables) {
      if (built_shift == at) {
        return table;
      }
    }
    tables.emplace_back(
        at, std::make_shared<const RouteTable>(BuildRouteTable(model, at)));
    return tables.back().second;
  };

  std::vector<RouteSnapshot> routes(plan.size() - from);
  std::optional<size_t> last_change;
  for (size_t i = from; i < plan.size(); ++i) {
    if (AdvancePlanState(plan[i], model, alive, shift)) {
      last_change = i;
    }
    const bool timestamp_ends =
        i + 1 == plan.size() || plan[i + 1].at_request != plan[i].at_request;
    if (timestamp_ends && last_change) {
      routes[*last_change - from] = Snapshot(table_at(shift), model);
      last_change.reset();
    }
  }
  return routes;
}

}  // namespace

uint64_t PlanRouteTableBytes(const RouteTable* base,
                             const std::vector<TimelineStep>& plan) {
  std::unordered_set<const RouteTable*> counted = {nullptr};  // absent steps
  uint64_t total = 0;
  const auto count = [&](const RouteTable* table) {
    if (counted.insert(table).second) {
      total += table->bytes();
    }
  };
  count(base);
  for (const TimelineStep& step : plan) {
    count(step.routes.table.get());
    if (step.routes.spine_of_partition != nullptr) {  // one map per snapshot
      total += step.routes.spine_of_partition->capacity() * sizeof(uint32_t);
    }
  }
  return total;
}

bool TimelineNeedsObserver(const std::vector<ClusterEvent>& events) {
  return std::any_of(events.begin(), events.end(), [](const ClusterEvent& e) {
    return e.kind == ClusterEvent::Kind::kReallocateCache;
  });
}

std::vector<TimelineStep> MergeTimeline(const SimBackendConfig& config) {
  std::vector<TimelineStep> timeline;
  timeline.reserve(config.events.size() + config.phases.size());
  for (const WorkloadPhase& phase : config.phases) {
    TimelineStep step;
    step.at_request = phase.start_request;
    step.is_phase = true;
    step.phase = phase;
    timeline.push_back(std::move(step));
  }
  for (const ClusterEvent& event : config.events) {
    TimelineStep step;
    step.at_request = event.at_request;
    step.event = event;
    timeline.push_back(std::move(step));
  }
  // Phases before events on ties; otherwise list order (stable).
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimelineStep& a, const TimelineStep& b) {
                     if (a.at_request != b.at_request) {
                       return a.at_request < b.at_request;
                     }
                     return a.is_phase && !b.is_phase;
                   });
  return timeline;
}

std::vector<TimelineStep> BuildTimelinePlan(
    const SimBackendConfig& config, ClusterModel& model,
    std::shared_ptr<const RouteTable> base) {
  std::vector<TimelineStep> plan = MergeTimeline(config);
  // A dynamic policy fills its own caches and never reads the allocation, so
  // the controller's re-allocation has nothing to act on: the step is left
  // out, and no engine queues it, observes for it or rendezvouses at it.
  if (PolicyIsDynamic(config.cluster.cache_policy)) {
    std::erase_if(plan, [](const TimelineStep& step) {
      return !step.is_phase &&
             step.event.kind == ClusterEvent::Kind::kReallocateCache;
    });
  }

  // Walk the timeline once, tracking the alive set the way the controller
  // would observe it. Each snapshot is a pure function of the timeline prefix,
  // so precomputing it off the hot path is exact; kReallocateCache snapshots
  // depend on runtime-observed counts and cannot be. The walk starts from
  // `model`'s state on entry at shift 0, which is the state `base` shows.
  std::vector<RouteSnapshot> routes =
      WalkSnapshots(plan, 0, model, std::vector<uint8_t>(model.cfg.num_spine, 1),
                    0, std::move(base));
  for (size_t i = 0; i < plan.size(); ++i) {
    TimelineStep& step = plan[i];
    step.routes = std::move(routes[i]);
    if (step.is_phase && !config.two_level_sampling) {
      // O(pool) dense pmf for the phase's sampler rebuild. Two-level mode
      // skips it: the engines rebuild their O(hot) samplers from the phase's
      // zipf_theta in closed form instead (the hook receives a null pmf).
      step.pmf = std::make_shared<const std::vector<double>>(
          model.HeadWithTailFor(step.phase.zipf_theta));
    }
  }
  return plan;
}

std::vector<RouteSnapshot> BuildReallocRoutes(
    const std::vector<TimelineStep>& plan, const EngineCore& core,
    ClusterModel& model) {
  // The refill changed the cached set, so no table built before it can be
  // shared: the walk starts from the immediate table. Its map is the
  // controller's as the refill re-synced it, not the core's.
  std::vector<RouteSnapshot> routes = {Snapshot(
      std::make_shared<const RouteTable>(BuildRouteTable(model, core.hot_shift())),
      model)};
  const std::vector<RouteSnapshot> suffix =
      WalkSnapshots(plan, core.next_action_index(), model, core.spine_alive(),
                    core.hot_shift(), routes[0].table);
  routes.insert(routes.end(), suffix.begin(), suffix.end());
  return routes;
}

EngineCore::EngineCore(const ClusterModel* model, uint64_t rng_seed,
                       uint64_t router_seed, bool enable_observer)
    : model_(model),
      rng_(rng_seed),
      view_(MakeTrackerConfig(model->cfg)),
      router_(&view_, EffectiveRouting(model->cfg), router_seed),
      spine_of_partition_(model->cfg.num_spine),
      write_ratio_(model->cfg.write_ratio),
      spine_alive_(model->cfg.num_spine, 1) {
  std::iota(spine_of_partition_.begin(), spine_of_partition_.end(), 0);
  const CachePolicyKind kind = model->cfg.cache_policy;
  // Only the static allocation is re-allocated from observed counts; a
  // dynamic policy's plan has no kReallocateCache step (BuildTimelinePlan),
  // so it gets no observer either.
  if (enable_observer && !PolicyIsDynamic(kind)) {
    observer_ = std::make_unique<HeavyHitterDetector>(ObserverConfig(model->pool));
  }
  if (PolicyIsDynamic(kind)) {
    policy_mode_ = kDynamicPolicy;
    CachePolicyConfig pc;
    pc.policy = kind;
    pc.hierarchy = model->cfg.cache_hierarchy;
    pc.write = model->cfg.write_policy;
    // One replica per engine stream; the seed is stream-independent so every
    // shard's replica filters identically (per-shard divergence comes from the
    // request streams, like the telemetry-staleness relaxation).
    pc.seed = HashCombine(model->cfg.seed, 0xca9e9071c7ULL);
    policy_ = std::make_unique<CachePolicyRuntime>(
        pc, model->allocation.get(), &model->placement, &spine_alive_);
  }
}

void EngineCore::Reallocate(const std::vector<TimelineStep>& plan,
                            const HeavyHitterReports& reports) {
  if (realloc_model_ == nullptr) {
    realloc_model_ = std::make_unique<ClusterModel>(*model_);
  }
  realloc_model_->ReallocateFromReports(spine_alive_, reports);
  std::vector<RouteSnapshot> snapshots =
      BuildReallocRoutes(plan, *this, *realloc_model_);
  SetRoutes(snapshots[0]);
  for (size_t i = 1; i < snapshots.size(); ++i) {
    const size_t index = next_action_ + i - 1;
    if (index < actions_.size()) {
      actions_[index].routes = snapshots[i];
    }
  }
  // Nothing routes through the previous refill's snapshots any more: the
  // current routes and every pending action now name this refill's.
  realloc_routes_ = std::move(snapshots);
}

void EngineCore::ConfigureOpenLoop(const QueueModelConfig& queue,
                                   uint64_t time_seed) {
  if (!queue.enabled()) {
    return;  // closed loop: the byte stays 0 and no state is allocated
  }
  open_loop_ = 1;
  time_rng_.Seed(time_seed);
  arrival_ = queue.arrival;
  hop_cost_ = queue.hop_cost;
  server_rate_ = queue.server_service_rate > 0.0 ? queue.server_service_rate : 1.0;
  layer_rate_ = ResolveServiceRates(queue, model_->cfg);
  vnow_ = 0.0;
  cache_free_at_ = model_->ZeroCacheLoads();
  server_free_at_.assign(model_->num_servers(), 0.0);
}

void EngineCore::ApplyAction(const Action& action) {
  if (action.is_phase) {
    write_ratio_ = action.phase.write_ratio;
    hot_shift_ = action.phase.hot_shift;
    SetRoutes(action.routes);
    // Phase boundaries reset the observation window: the controller must rank
    // keys by their popularity under the *new* regime, not the accumulated past.
    ResetObserver();
    if (phase_hook_) {
      phase_hook_(action.phase, action.pmf);
    }
    return;
  }
  const ClusterEvent& event = action.event;
  const uint32_t num_spine = model_->cfg.num_spine;
  switch (event.kind) {
    case ClusterEvent::Kind::kFailSpine:
      if (event.spine < num_spine && spine_alive_[event.spine]) {
        spine_alive_[event.spine] = 0;
        ++dead_spines_;
        recovery_ran_ = false;  // hot objects of the dead switch lose their copy
        view_.MarkDead({0, event.spine});
        if (policy_) {
          // The failed switch loses its cache (dirty lines and all); it comes
          // back cold on recovery and rewarms through the policy's fill path.
          policy_->InvalidateNode({0, event.spine});
        }
      }
      break;
    case ClusterEvent::Kind::kRecoverSpine:
      if (event.spine < num_spine && !spine_alive_[event.spine]) {
        spine_alive_[event.spine] = 1;
        --dead_spines_;
        view_.MarkAlive({0, event.spine});
      }
      SetRoutes(action.routes);  // partitions return to their home switch
      break;
    case ClusterEvent::Kind::kRunRecovery:
      recovery_ran_ = true;
      SetRoutes(action.routes);  // invalidate cached routes
      break;
    case ClusterEvent::Kind::kShiftHotspot:
      hot_shift_ = event.value;
      SetRoutes(action.routes);
      ResetObserver();
      break;
    case ClusterEvent::Kind::kReallocateCache:
      if (realloc_hook_) {
        realloc_hook_();
      }
      // A fresh window: subsequent re-allocations rank by post-reallocation
      // popularity only.
      ResetObserver();
      break;
  }
}

}  // namespace distcache
