#include "sim/sequential_backend.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "sim/route_table.h"

namespace distcache {

namespace {

// Charges loads into the global cumulative counters and refreshes the telemetry
// view in place — the per-request piggybacked-telemetry semantics of §4.2 (every
// reply, data or coherence ack, carries the serving switch's current load).
struct SequentialSink {
  BackendStats* st;
  LoadTracker* view;

  void AddCacheLoad(CacheNodeId node, double delta) {
    double& load = st->cache_load[node.layer][node.index];
    load += delta;
    view->Set(node, load);
  }
  void AddServerLoad(uint32_t server, double delta) {
    st->server_load[server] += delta;
  }
};

}  // namespace

SequentialBackend::SequentialBackend(const SimBackendConfig& config)
    : config_(config),
      model_(config.cluster, /*build_popularity=*/!config.two_level_sampling),
      core_(&model_, HashCombine(config.cluster.seed, 0xc1057e4ULL),
            HashCombine(config.cluster.seed, 0x90076eULL),
            TimelineNeedsObserver(config.events)) {
  if (config_.two_level_sampling) {
    two_level_ = std::make_unique<TwoLevelSampler>(
        model_.cfg.num_keys, model_.cfg.zipf_theta, model_.pool);
  } else {
    head_dist_ = std::make_unique<DiscreteDistribution>(model_.head_with_tail,
                                                        "head+tail");
  }
  // The pre-event route table must snapshot the pristine allocation, so build it
  // before the plan walk below mutates the controller state.
  model_.dense_routes = config_.dense_routes;
  base_routes_ = std::make_shared<const RouteTable>(BuildRouteTable(model_));
  core_.SetRoutes(base_routes_);
  // Open-loop virtual time, when configured. The time stream gets its own seed
  // derivation so the key/write streams stay bit-identical to closed-loop runs.
  core_.ConfigureOpenLoop(config_.queue,
                          HashCombine(config.cluster.seed, 0x0be71457ULL));
  plan_ = BuildTimelinePlan(config_, model_, base_routes_);
  core_.SetPhaseHook([this](const WorkloadPhase& phase,
                            const std::shared_ptr<const std::vector<double>>& pmf) {
    if (two_level_ != nullptr) {
      // Closed-form rebuild from the phase's skew — no pmf was materialized.
      two_level_ = std::make_unique<TwoLevelSampler>(
          model_.cfg.num_keys, phase.zipf_theta, model_.pool);
    } else if (pmf != nullptr) {
      head_dist_ = std::make_unique<DiscreteDistribution>(*pmf, "head+tail");
    }
  });
  // Controller re-allocation (§6.4) from this engine's one report; actions
  // align with plan_ 1:1.
  core_.SetReallocateHook(
      [this] { core_.Reallocate(plan_, {core_.ObservedCounts()}); });
}

BackendStats SequentialBackend::Run(uint64_t num_requests) {
  BackendStats st;
  st.cache_load = model_.ZeroCacheLoads();
  st.server_load.assign(model_.num_servers(), 0.0);
  core_.BindStats(&st);
  core_.SetSampleStep(static_cast<double>(config_.sample_interval));
  core_.ClearActions();
  for (const TimelineStep& step : plan_) {
    // Timestamps at or beyond the Run never fire (AdvanceTo stops at the last
    // request index); queue everything and let the clock decide.
    core_.QueueAction({static_cast<double>(step.at_request), step.is_phase,
                       step.phase, step.event, step.pmf, step.routes});
  }
  // The sink's per-request Set() keeps the client view equal to the true loads
  // (dead spines keep their +inf pin through the tracker's shadow — see
  // load_tracker.h), so this engine needs no telemetry epoch refresh.
  SequentialSink sink{&st, &core_.view()};

  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_requests; ++i) {
    core_.AdvanceTo(i);
    const uint32_t bucket =
        two_level_ != nullptr
            ? two_level_->Sample(core_.rng())
            : static_cast<uint32_t>(head_dist_->Sample(core_.rng()));
    core_.Process(sink, bucket);
  }
  const auto t1 = std::chrono::steady_clock::now();
  st.requests = num_requests;
  core_.FinishSeries(num_requests);
  st.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  st.peak_rss_bytes = CurrentPeakRssBytes();
  st.route_table_bytes = PlanRouteTableBytes(base_routes_.get(), plan_);
  st.sampler_bytes =
      two_level_ != nullptr ? two_level_->bytes() : head_dist_->bytes();
  return st;
}

}  // namespace distcache
