// Route snapshots of the timeline plan: every step due at one timestamp applies
// in one AdvanceTo loop, so only the last route-changing step of a timestamp
// carries a table, and a step whose controller state equals one the walk
// already built (the base table included) shares that table. Each present
// table must equal a rebuild from the walk's state, and every engine's run
// must stay the one pinned before coalescing and sharing existed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multiproc_runnable.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace distcache {
namespace {

constexpr uint64_t kRequests = 200'000;
// Rank r routes key r − 200: the cached keys stay inside the table's pool, so
// a shifted table is neither empty nor equal to an unshifted one.
constexpr uint64_t kShift = 999'800;

SimBackendConfig BaseConfig() {
  SimBackendConfig cfg;
  cfg.cluster.mechanism = Mechanism::kDistCache;
  cfg.cluster.num_spine = 8;
  cfg.cluster.num_racks = 8;
  cfg.cluster.servers_per_rack = 4;
  cfg.cluster.per_switch_objects = 50;
  cfg.cluster.num_keys = 1'000'000;
  cfg.cluster.zipf_theta = 0.99;
  cfg.cluster.seed = 11;
  cfg.sample_interval = 20'000;
  return cfg;
}

// K = 2 fail/remap/recover, with a phase and a shift sharing a timestamp and a
// shift back to the unshifted remap state. Plan order:
//   0,1 fail 2, 5 @20k   2 remap @50k   3 phase, 4 shift @80k
//   5 shift(0) @120k     6,7 recover 2, 5 @150k
SimBackendConfig FailoverConfig() {
  SimBackendConfig cfg = BaseConfig();
  cfg.events = {ClusterEvent::FailSpine(20'000, 2),
                ClusterEvent::FailSpine(20'000, 5),
                ClusterEvent::RunRecovery(50'000),
                ClusterEvent::ShiftHotspot(80'000, kShift),
                ClusterEvent::ShiftHotspot(120'000, 0),
                ClusterEvent::RecoverSpine(150'000, 2),
                ClusterEvent::RecoverSpine(150'000, 5)};
  cfg.phases = {{80'000, 0.9, 0.05, 7'000}};
  return cfg;
}

// A re-allocation followed by two recovers at one timestamp, then the same
// two spines failing and remapping again. Plan order:
//   0,1 fail 2, 5 @20k   2 remap @50k   3 shift @80k
//   4 realloc, 5,6 recover 2, 5 @120k   7,8 fail 2, 5 @150k   9 remap @170k
SimBackendConfig ReallocConfig() {
  SimBackendConfig cfg = BaseConfig();
  cfg.events = {ClusterEvent::FailSpine(20'000, 2),
                ClusterEvent::FailSpine(20'000, 5),
                ClusterEvent::RunRecovery(50'000),
                ClusterEvent::ShiftHotspot(80'000, kShift),
                ClusterEvent::ReallocateCache(120'000),
                ClusterEvent::RecoverSpine(120'000, 2),
                ClusterEvent::RecoverSpine(120'000, 5),
                ClusterEvent::FailSpine(150'000, 2),
                ClusterEvent::FailSpine(150'000, 5),
                ClusterEvent::RunRecovery(170'000)};
  return cfg;
}

void ExpectSameTable(const RouteTable& got, const RouteTable& want,
                     const std::string& label) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  for (size_t r = 0; r < got.entries.size(); ++r) {
    const RouteEntry& a = got.entries[r];
    const RouteEntry& b = want.entries[r];
    ASSERT_TRUE(a.kind == b.kind && a.num == b.num && a.server == b.server &&
                a.c0 == b.c0 && a.c1 == b.c1)
        << label << " rank " << r;
  }
  EXPECT_EQ(got.overflow, want.overflow) << label;
}

struct Plan {
  std::unique_ptr<ClusterModel> model;
  std::shared_ptr<const RouteTable> base;
  std::vector<TimelineStep> steps;
};

Plan BuildPlan(const SimBackendConfig& cfg) {
  Plan plan;
  plan.model = std::make_unique<ClusterModel>(cfg.cluster);
  plan.base = std::make_shared<const RouteTable>(BuildRouteTable(*plan.model));
  plan.steps = BuildTimelinePlan(cfg, *plan.model, plan.base);
  return plan;
}

TEST(PlanSnapshots, OnlyTheLastRouteChangeAtATimestampCarriesATable) {
  const Plan plan = BuildPlan(FailoverConfig());
  ASSERT_EQ(plan.steps.size(), 8u);
  ASSERT_TRUE(plan.steps[3].is_phase);
  const bool present[] = {false, false, true, false, true, true, false, true};
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].routes != nullptr, present[i]) << "step " << i;
  }
}

TEST(PlanSnapshots, EqualStatesShareOneTable) {
  const Plan plan = BuildPlan(FailoverConfig());
  ASSERT_EQ(plan.steps.size(), 8u);
  // The last recover undoes the remap at shift 0: the base table itself.
  EXPECT_EQ(plan.steps[7].routes, plan.base);
  // The shift back to 0 returns to the remap step's state.
  EXPECT_EQ(plan.steps[5].routes, plan.steps[2].routes);
  EXPECT_NE(plan.steps[2].routes, plan.base);
  EXPECT_NE(plan.steps[4].routes, plan.steps[2].routes);
  // Three distinct tables, each counted once.
  EXPECT_EQ(PlanRouteTableBytes(plan.base.get(), plan.steps),
            plan.base->bytes() + plan.steps[2].routes->bytes() +
                plan.steps[4].routes->bytes());
  // Without a base the walk builds the final recover's table once itself.
  ClusterModel model(FailoverConfig().cluster);
  const std::vector<TimelineStep> unbased =
      BuildTimelinePlan(FailoverConfig(), model);
  ASSERT_NE(unbased[7].routes, nullptr);
  ExpectSameTable(*unbased[7].routes, *plan.base, "unbased recover");
}

// The reference walk: a fresh model driven through each step's transition,
// with the table rebuilt after every step.
TEST(PlanSnapshots, EveryTableMatchesARebuildOfTheWalkState) {
  const SimBackendConfig cfg = FailoverConfig();
  const Plan plan = BuildPlan(cfg);
  ClusterModel ref(cfg.cluster);
  std::vector<uint8_t> alive(cfg.cluster.num_spine, 1);
  uint64_t shift = 0;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const TimelineStep& step = plan.steps[i];
    if (step.is_phase) {
      shift = step.phase.hot_shift;
    } else if (step.event.kind == ClusterEvent::Kind::kFailSpine) {
      alive[step.event.spine] = 0;
    } else if (step.event.kind == ClusterEvent::Kind::kRecoverSpine) {
      alive[step.event.spine] = 1;
      ref.SyncControllerRemap(alive);
    } else if (step.event.kind == ClusterEvent::Kind::kRunRecovery) {
      ref.SyncControllerRemap(alive);
    } else if (step.event.kind == ClusterEvent::Kind::kShiftHotspot) {
      shift = step.event.value;
    }
    if (step.routes != nullptr) {
      ExpectSameTable(*step.routes, BuildRouteTable(ref, shift),
                      "step " + std::to_string(i));
    }
  }
}

// Pinned from the engines before plan steps were coalesced or shared: no
// request's routing changed.
TEST(PlanSnapshots, RunsMatchThePinnedDigests) {
  const struct {
    const char* name;
    SimBackendConfig cfg;
    uint64_t sequential;
    uint64_t sharded;
  } cases[] = {
      {"failover", FailoverConfig(), 0x030d1703015e712eULL,
       0xe51c74c76f2ea4b5ULL},
      {"realloc", ReallocConfig(), 0x96bbb07987059678ULL,
       0x9abb7ee02bfd4c19ULL},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(DeterministicStatsDigest(
                  MakeSimBackend(BackendKind::kSequential, c.cfg)->Run(kRequests)),
              c.sequential)
        << c.name << " sequential";
    EXPECT_EQ(DeterministicStatsDigest(
                  MakeSimBackend(BackendKind::kSharded, c.cfg)->Run(kRequests)),
              c.sharded)
        << c.name << " sharded x1";
    if (MultiprocRunnable()) {
      EXPECT_EQ(DeterministicStatsDigest(
                    MakeSimBackend(BackendKind::kMultiproc, c.cfg)->Run(kRequests)),
                c.sharded)
          << c.name << " multiproc x1";
    }
  }
}

// BuildReallocRoutes' suffix follows the plan's rules against the refilled
// allocation: the first of the two recovers at the re-allocation's timestamp
// is absent, and the remap after the second failure returns to the immediate
// table's state and shares it.
TEST(PlanSnapshots, ReallocSuffixIsCoalescedAndMatchesARebuild) {
  const SimBackendConfig cfg = ReallocConfig();
  Plan plan = BuildPlan(cfg);
  ASSERT_EQ(plan.steps.size(), 10u);
  ASSERT_EQ(plan.steps[4].event.kind, ClusterEvent::Kind::kReallocateCache);
  // The hot set the shift moved to, hottest first.
  std::vector<std::pair<uint64_t, uint32_t>> report;
  for (uint64_t i = 0; i < 1000; ++i) {
    report.push_back({(kShift + i) % cfg.cluster.num_keys,
                      static_cast<uint32_t>(2000 - i)});
  }

  ClusterModel& model = *plan.model;
  EngineCore core(&model, 1, 2, /*enable_observer=*/false);
  BackendStats st;
  core.BindStats(&st);
  core.SetRoutes(plan.base);
  for (const TimelineStep& step : plan.steps) {
    core.QueueAction({static_cast<double>(step.at_request), step.is_phase,
                      step.phase, step.event, step.pmf, step.routes});
  }
  std::vector<std::shared_ptr<const RouteTable>> tables;
  core.SetReallocateHook([&] {
    model.ReallocateFromReports(core.spine_alive(), {report});
    tables = BuildReallocRoutes(plan.steps, core, model);
  });
  core.AdvanceTo(120'000);

  // [0] the immediate table, then steps 5..9.
  ASSERT_EQ(tables.size(), 6u);
  const bool present[] = {true, false, true, false, false, true};
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(tables[t] != nullptr, present[t]) << "table " << t;
  }
  EXPECT_EQ(tables[5], tables[0]);
  EXPECT_NE(tables[2], tables[0]);

  ClusterModel ref(cfg.cluster);
  std::vector<uint8_t> alive(cfg.cluster.num_spine, 1);
  alive[2] = alive[5] = 0;
  ref.ReallocateFromReports(alive, {report});
  const RouteTable remapped = BuildRouteTable(ref, kShift);
  ExpectSameTable(*tables[0], remapped, "immediate");
  ExpectSameTable(*tables[5], remapped, "remap after refill");
  alive.assign(cfg.cluster.num_spine, 1);
  ref.SyncControllerRemap(alive);
  ExpectSameTable(*tables[2], BuildRouteTable(ref, kShift), "recover after refill");
}

}  // namespace
}  // namespace distcache
