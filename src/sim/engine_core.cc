#include "sim/engine_core.h"

#include <algorithm>
#include <limits>

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

// Applies one plan step's routing-relevant transition to (alive, shift, model) —
// the single source of truth for how a step changes the controller state — and
// returns the post-step route snapshot (null for steps that change no routes:
// kFailSpine keeps clients on their stale routes, kReallocateCache is computed
// at runtime). Shared by the construction-time plan walk and the
// post-reallocation rebuild (BuildReallocRoutes) so the two can never diverge.
std::shared_ptr<const RouteTable> AdvancePlanState(const TimelineStep& step,
                                                   ClusterModel& model,
                                                   std::vector<uint8_t>& alive,
                                                   uint64_t& shift) {
  const auto snapshot = [&] {
    return std::make_shared<const RouteTable>(BuildRouteTable(model, shift));
  };
  if (step.is_phase) {
    shift = step.phase.hot_shift;
    return snapshot();
  }
  switch (step.event.kind) {
    case ClusterEvent::Kind::kFailSpine:
      if (step.event.spine < alive.size()) {
        alive[step.event.spine] = 0;
      }
      return nullptr;  // no remap: stale routes until recovery
    case ClusterEvent::Kind::kRecoverSpine:
      if (step.event.spine < alive.size()) {
        alive[step.event.spine] = 1;
      }
      model.SyncControllerRemap(alive);
      return snapshot();
    case ClusterEvent::Kind::kRunRecovery:
      model.SyncControllerRemap(alive);
      return snapshot();
    case ClusterEvent::Kind::kShiftHotspot:
      shift = step.event.value;
      return snapshot();
    case ClusterEvent::Kind::kReallocateCache:
      break;
  }
  return nullptr;
}

}  // namespace

uint64_t PlanRouteTableBytes(const RouteTable* base,
                             const std::vector<TimelineStep>& plan) {
  uint64_t total = base != nullptr ? base->bytes() : 0;
  for (const TimelineStep& step : plan) {
    if (step.routes != nullptr) {
      total += step.routes->bytes();
    }
  }
  return total;
}

bool TimelineNeedsObserver(const std::vector<ClusterEvent>& events) {
  return std::any_of(events.begin(), events.end(), [](const ClusterEvent& e) {
    return e.kind == ClusterEvent::Kind::kReallocateCache;
  });
}

std::vector<TimelineStep> BuildTimelinePlan(const SimBackendConfig& config,
                                            ClusterModel& model) {
  std::vector<TimelineStep> plan;
  plan.reserve(config.events.size() + config.phases.size());
  for (const WorkloadPhase& phase : config.phases) {
    TimelineStep step;
    step.at_request = phase.start_request;
    step.is_phase = true;
    step.phase = phase;
    plan.push_back(std::move(step));
  }
  // A dynamic policy fills its own caches and never reads the allocation, so
  // the controller's re-allocation has nothing to act on: the step is left
  // out, and no engine queues it, observes for it or rendezvouses at it.
  const bool dynamic = PolicyIsDynamic(config.cluster.cache_policy);
  for (const ClusterEvent& event : config.events) {
    if (dynamic && event.kind == ClusterEvent::Kind::kReallocateCache) {
      continue;
    }
    TimelineStep step;
    step.at_request = event.at_request;
    step.event = event;
    plan.push_back(std::move(step));
  }
  // Phases before events on ties; otherwise list order (stable).
  std::stable_sort(plan.begin(), plan.end(),
                   [](const TimelineStep& a, const TimelineStep& b) {
                     if (a.at_request != b.at_request) {
                       return a.at_request < b.at_request;
                     }
                     return a.is_phase && !b.is_phase;
                   });

  // Walk the timeline once, tracking the alive set the way the controller would
  // observe it, and snapshot the route table after every routing-relevant step
  // (each snapshot is a pure function of the timeline prefix, so precomputing it
  // off the hot path is exact). kReallocateCache snapshots cannot be precomputed:
  // they depend on runtime-observed counts.
  std::vector<uint8_t> alive(model.cfg.num_spine, 1);
  uint64_t shift = 0;
  for (TimelineStep& step : plan) {
    if (step.is_phase && !config.two_level_sampling) {
      // O(pool) dense pmf for the phase's sampler rebuild. Two-level mode
      // skips it: the engines rebuild their O(hot) samplers from the phase's
      // zipf_theta in closed form instead (the hook receives a null pmf).
      step.pmf = std::make_shared<const std::vector<double>>(
          model.HeadWithTailFor(step.phase.zipf_theta));
    }
    step.routes = AdvancePlanState(step, model, alive, shift);
  }
  return plan;
}

std::vector<std::shared_ptr<const RouteTable>> BuildReallocRoutes(
    const std::vector<TimelineStep>& plan, const EngineCore& core,
    ClusterModel& model) {
  std::vector<std::shared_ptr<const RouteTable>> routes;
  routes.push_back(
      std::make_shared<const RouteTable>(BuildRouteTable(model, core.hot_shift())));
  std::vector<uint8_t> alive = core.spine_alive();
  uint64_t shift = core.hot_shift();
  for (size_t i = core.next_action_index(); i < plan.size(); ++i) {
    routes.push_back(AdvancePlanState(plan[i], model, alive, shift));
  }
  return routes;
}

EngineCore::EngineCore(const ClusterModel* model, uint64_t rng_seed,
                       uint64_t router_seed, bool enable_observer)
    : model_(model),
      rng_(rng_seed),
      view_(MakeTrackerConfig(model->cfg)),
      router_(&view_, EffectiveRouting(model->cfg), router_seed),
      write_ratio_(model->cfg.write_ratio),
      spine_alive_(model->cfg.num_spine, 1) {
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
