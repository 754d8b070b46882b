// Route snapshots of the timeline plan: every step due at one timestamp applies
// in one AdvanceTo loop, so only the last route-changing step of a timestamp
// carries a snapshot. A snapshot is a table of one (cached set, shift), which
// names layer-0 copies by partition, plus the controller's layer-0 map: the
// plan builds one table per shift, and a remap-only step carries a new map
// with the current table. Each present snapshot, resolved through its map,
// must route what a reference model driven through the same steps holds, and
// every engine's run must stay the one pinned before coalescing and sharing
// existed.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
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

// A re-allocation between a failure and its remap: the controller's re-sync at
// the refill already moves the dead spines' partitions, while the engines
// still route the pre-failure map until the remap step. Plan order:
//   0 shift @10k   1,2 fail 2, 5 @20k   3 realloc @50k   4 remap @80k
//   5,6 recover 2, 5 @150k
SimBackendConfig ReallocBeforeRemapConfig() {
  SimBackendConfig cfg = BaseConfig();
  cfg.events = {ClusterEvent::ShiftHotspot(10'000, kShift),
                ClusterEvent::FailSpine(20'000, 2),
                ClusterEvent::FailSpine(20'000, 5),
                ClusterEvent::ReallocateCache(50'000),
                ClusterEvent::RunRecovery(80'000),
                ClusterEvent::RecoverSpine(150'000, 2),
                ClusterEvent::RecoverSpine(150'000, 5)};
  return cfg;
}

void ExpectSameTable(const RouteTable& got, const RouteTable& want,
                     const std::string& label) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  for (size_t r = 0; r < got.entries.size(); ++r) {
    const RouteEntry& a = got.entries[r];
    const RouteEntry& b = want.entries[r];
    ASSERT_TRUE(a.kind == b.kind && a.num == b.num && a.c0 == b.c0 &&
                a.c1 == b.c1)
        << label << " rank " << r;
  }
  EXPECT_EQ(got.overflow, want.overflow) << label;
}

// Expects every rank of `snapshot`, its layer-0 candidates resolved through
// the snapshot's map, to route what `ref` holds at hot shift `shift`: the
// rank's key's ClusterModel::CopiesOf (post-remap).
void ExpectResolvesLike(const RouteSnapshot& snapshot, const ClusterModel& ref,
                        uint64_t shift, const std::string& label) {
  ASSERT_NE(snapshot.table, nullptr) << label;
  ASSERT_NE(snapshot.spine_of_partition, nullptr) << label;
  const RouteTable& table = *snapshot.table;
  const std::vector<uint32_t>& map = *snapshot.spine_of_partition;
  ASSERT_EQ(map.size(), ref.cfg.num_spine) << label;
  for (uint64_t rank = 0; rank < ref.pool; ++rank) {
    const uint64_t key = KeyOfRank(rank, shift, ref.cfg.num_keys);
    const CacheCopies want = ref.CopiesOf(key);
    ASSERT_FALSE(want.replicated_all_spines) << label;
    if (rank >= table.hot_len()) {
      ASSERT_FALSE(want.cached()) << label << " rank " << rank;
      continue;
    }
    const RouteEntry& e = table.entries[rank];
    ASSERT_EQ(e.kind, want.cached() ? RouteEntry::kCached : RouteEntry::kUncached)
        << label << " rank " << rank;
    ASSERT_EQ(e.num, want.num) << label << " rank " << rank;
    const uint32_t inline_cands[2] = {static_cast<uint32_t>(e.c0),
                                      static_cast<uint32_t>(e.c1)};
    const uint32_t* cands = e.num <= 2 ? inline_cands : &table.overflow[e.c1];
    for (uint8_t i = 0; i < e.num; ++i) {
      CacheNodeId got = UnpackCandidate(cands[i]);
      if (got.layer == 0) {
        got.index = map[got.index];
      }
      ASSERT_EQ(got, want.nodes[i]) << label << " rank " << rank << " copy " << i;
    }
  }
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

// The hot set kShift moved to, hottest first: one engine's heavy-hitter report.
std::vector<std::pair<uint64_t, uint32_t>> ShiftedReport(uint64_t num_keys) {
  std::vector<std::pair<uint64_t, uint32_t>> report;
  for (uint64_t i = 0; i < 1000; ++i) {
    report.push_back({(kShift + i) % num_keys, static_cast<uint32_t>(2000 - i)});
  }
  return report;
}

// Runs an engine core's clock through `plan` to `at` and returns the
// snapshots its re-allocation hook built from `report`.
std::vector<RouteSnapshot> ReallocSnapshotsAt(
    Plan& plan, const std::vector<std::pair<uint64_t, uint32_t>>& report,
    uint64_t at) {
  ClusterModel& model = *plan.model;
  EngineCore core(&model, 1, 2, /*enable_observer=*/false);
  BackendStats st;
  core.BindStats(&st);
  core.SetRoutes(plan.base);
  for (const TimelineStep& step : plan.steps) {
    core.QueueAction({static_cast<double>(step.at_request), step.is_phase,
                      step.phase, step.event, step.pmf, step.routes});
  }
  std::vector<RouteSnapshot> snapshots;
  core.SetReallocateHook([&] {
    model.ReallocateFromReports(core.spine_alive(), {report});
    snapshots = BuildReallocRoutes(plan.steps, core, model);
  });
  core.AdvanceTo(at);
  return snapshots;
}

TEST(PlanSnapshots, OnlyTheLastRouteChangeAtATimestampCarriesATable) {
  const Plan plan = BuildPlan(FailoverConfig());
  ASSERT_EQ(plan.steps.size(), 8u);
  ASSERT_TRUE(plan.steps[3].is_phase);
  const bool present[] = {false, false, true, false, true, true, false, true};
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].routes.table != nullptr, present[i]) << "step " << i;
    EXPECT_EQ(plan.steps[i].routes.spine_of_partition != nullptr, present[i])
        << "step " << i;
  }
}

// One table per (cached set, shift): the remap and the recover are
// remap-only steps, so each carries its map with the base table, and the
// shift back to 0 returns to the base table too.
TEST(PlanSnapshots, OneTablePerCachedSetAndShift) {
  const Plan plan = BuildPlan(FailoverConfig());
  ASSERT_EQ(plan.steps.size(), 8u);
  std::vector<uint32_t> identity(8);
  std::iota(identity.begin(), identity.end(), 0u);
  const RouteSnapshot& remap = plan.steps[2].routes;
  EXPECT_EQ(remap.table, plan.base);
  EXPECT_NE(*remap.spine_of_partition, identity);
  EXPECT_NE(plan.steps[4].routes.table, plan.base);
  EXPECT_EQ(*plan.steps[4].routes.spine_of_partition, *remap.spine_of_partition);
  EXPECT_EQ(plan.steps[5].routes.table, plan.base);
  EXPECT_EQ(*plan.steps[5].routes.spine_of_partition, *remap.spine_of_partition);
  EXPECT_EQ(plan.steps[7].routes.table, plan.base);
  EXPECT_EQ(*plan.steps[7].routes.spine_of_partition, identity);
  // Two distinct tables, each counted once, and four maps of 8 words.
  EXPECT_EQ(PlanRouteTableBytes(plan.base.get(), plan.steps),
            plan.base->bytes() + plan.steps[4].routes.table->bytes() +
                4 * 8 * sizeof(uint32_t));
  // Without a base the walk builds the shift-0 table once itself, at the
  // remap, and every shift-0 step shares it.
  ClusterModel model(FailoverConfig().cluster);
  const std::vector<TimelineStep> unbased =
      BuildTimelinePlan(FailoverConfig(), model);
  ASSERT_NE(unbased[2].routes.table, nullptr);
  EXPECT_EQ(unbased[5].routes.table, unbased[2].routes.table);
  EXPECT_EQ(unbased[7].routes.table, unbased[2].routes.table);
  ExpectSameTable(*unbased[7].routes.table, *plan.base, "unbased recover");
}

// The reference walk: a fresh model driven through each step's transition;
// every present snapshot, resolved through its map, routes what it holds.
TEST(PlanSnapshots, EveryStepResolvesLikeAReferenceWalk) {
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
    if (step.routes.table != nullptr) {
      ExpectResolvesLike(step.routes, ref, shift, "step " + std::to_string(i));
    }
  }
}

// Pinned from the engines before plan steps were coalesced or shared: no
// request's routing changed. The FullStatsDigest pins (every load and latency
// histogram bit on top of the digest rows) came from the same engines. The
// realloc-before-remap case was pinned before route snapshots carried the
// layer-0 map apart from the table.
TEST(PlanSnapshots, RunsMatchThePinnedDigests) {
  const struct {
    const char* name;
    SimBackendConfig cfg;
    uint64_t sequential;
    uint64_t sharded;
    uint64_t sequential_full;
    uint64_t sharded_full;
  } cases[] = {
      {"failover", FailoverConfig(), 0x030d1703015e712eULL,
       0xe51c74c76f2ea4b5ULL, 0x1e47683818c0901dULL, 0xc0ee426fdf37994eULL},
      {"realloc", ReallocConfig(), 0x96bbb07987059678ULL,
       0x9abb7ee02bfd4c19ULL, 0x82e26e006788e0ebULL, 0xd8247b7a64a30091ULL},
      {"realloc before remap", ReallocBeforeRemapConfig(),
       0x6501d2204367107dULL, 0x0d0d6dc83dc84586ULL, 0xd33925b504914985ULL,
       0x6472bb2398b98e4fULL},
  };
  for (const auto& c : cases) {
    const BackendStats sequential =
        MakeSimBackend(BackendKind::kSequential, c.cfg)->Run(kRequests);
    EXPECT_EQ(DeterministicStatsDigest(sequential), c.sequential)
        << c.name << " sequential";
    EXPECT_EQ(FullStatsDigest(sequential), c.sequential_full)
        << c.name << " sequential";
    const BackendStats threads =
        MakeSimBackend(BackendKind::kSharded, c.cfg)->Run(kRequests);
    EXPECT_EQ(DeterministicStatsDigest(threads), c.sharded)
        << c.name << " sharded x1";
    EXPECT_EQ(FullStatsDigest(threads), c.sharded_full) << c.name << " sharded x1";
    if (MultiprocRunnable()) {
      const BackendStats forks =
          MakeSimBackend(BackendKind::kMultiproc, c.cfg)->Run(kRequests);
      EXPECT_EQ(DeterministicStatsDigest(forks), c.sharded)
          << c.name << " multiproc x1";
      EXPECT_EQ(FullStatsDigest(forks), c.sharded_full)
          << c.name << " multiproc x1";
    }
  }
}

// BuildReallocRoutes' suffix follows the plan's rules against the refilled
// allocation: the first of the two recovers at the re-allocation's timestamp
// is absent, and every present snapshot shares the immediate table (one
// cached set, one shift) with its own map. The immediate map is the
// controller's at the refill, with spines 2 and 5 still dead.
TEST(PlanSnapshots, ReallocSuffixIsCoalescedAndResolvesLikeAReference) {
  const SimBackendConfig cfg = ReallocConfig();
  Plan plan = BuildPlan(cfg);
  ASSERT_EQ(plan.steps.size(), 10u);
  ASSERT_EQ(plan.steps[4].event.kind, ClusterEvent::Kind::kReallocateCache);
  const auto report = ShiftedReport(cfg.cluster.num_keys);
  const std::vector<RouteSnapshot> snapshots =
      ReallocSnapshotsAt(plan, report, 120'000);

  // [0] the immediate snapshot, then steps 5..9.
  ASSERT_EQ(snapshots.size(), 6u);
  const bool present[] = {true, false, true, false, false, true};
  for (size_t t = 0; t < snapshots.size(); ++t) {
    EXPECT_EQ(snapshots[t].table != nullptr, present[t]) << "snapshot " << t;
  }
  EXPECT_EQ(snapshots[2].table, snapshots[0].table);
  EXPECT_EQ(snapshots[5].table, snapshots[0].table);
  EXPECT_NE(snapshots[0].table, plan.steps[3].routes.table);

  ClusterModel ref(cfg.cluster);
  std::vector<uint8_t> alive(cfg.cluster.num_spine, 1);
  alive[2] = alive[5] = 0;
  ref.ReallocateFromReports(alive, {report});
  ExpectResolvesLike(snapshots[0], ref, kShift, "immediate");
  ExpectResolvesLike(snapshots[5], ref, kShift, "remap after refill");
  alive.assign(cfg.cluster.num_spine, 1);
  ref.SyncControllerRemap(alive);
  ExpectResolvesLike(snapshots[2], ref, kShift, "recover after refill");
}

// A re-allocation between a failure and its remap: the engine still routes
// the identity map, but the refill re-synced the controller to the dead
// spines, and the immediate snapshot carries the controller's map — the
// routes a rebuild of the refilled, remapped allocation gives.
TEST(PlanSnapshots, ReallocBeforeTheRemapInstallsTheControllersMap) {
  const SimBackendConfig cfg = ReallocBeforeRemapConfig();
  Plan plan = BuildPlan(cfg);
  ASSERT_EQ(plan.steps[3].event.kind, ClusterEvent::Kind::kReallocateCache);
  const auto report = ShiftedReport(cfg.cluster.num_keys);
  const std::vector<RouteSnapshot> snapshots =
      ReallocSnapshotsAt(plan, report, 50'000);
  ASSERT_FALSE(snapshots.empty());

  ClusterModel ref(cfg.cluster);
  std::vector<uint8_t> alive(cfg.cluster.num_spine, 1);
  alive[2] = alive[5] = 0;
  ref.ReallocateFromReports(alive, {report});
  EXPECT_EQ(*snapshots[0].spine_of_partition,
            ref.controller.spine_of_partition());
  EXPECT_NE(ref.controller.spine_of_partition()[2], 2u);
  ExpectResolvesLike(snapshots[0], ref, kShift, "immediate");
}

// Every pool-head key's placed copies (ClusterModel::CopiesOf), flattened:
// the copy count and replication flag, then each copy's layer and node.
std::vector<uint64_t> PlacedPoolHead(const ClusterModel& model) {
  std::vector<uint64_t> placed;
  for (uint64_t key = 0; key < model.pool; ++key) {
    const CacheCopies copies = model.CopiesOf(key);
    placed.push_back(copies.num + (copies.replicated_all_spines ? 0x100 : 0));
    for (uint8_t i = 0; i < copies.num; ++i) {
      placed.push_back(uint64_t{copies.nodes[i].layer} << 32 |
                       copies.nodes[i].index);
    }
  }
  return placed;
}

// A model copy is deep: refilling the copy and remapping one of its spines
// leaves the original's cached set, its identity map and its allocation bytes
// as they were. Before either changes, the two place every pool-head key
// alike.
TEST(ClusterModelCopy, RefillAndRemapLeaveTheOriginal) {
  const SimBackendConfig cfg = BaseConfig();
  const ClusterModel original(cfg.cluster);
  ClusterModel copy(original);
  const std::vector<uint64_t> placed = PlacedPoolHead(original);
  const size_t bytes = original.allocation->bytes();
  EXPECT_EQ(PlacedPoolHead(copy), placed);

  std::vector<uint8_t> alive(cfg.cluster.num_spine, 1);
  alive[2] = 0;
  copy.ReallocateFromReports(alive, {ShiftedReport(cfg.cluster.num_keys)});
  ASSERT_NE(copy.controller.spine_of_partition()[2], 2u);
  ASSERT_NE(PlacedPoolHead(copy), placed);

  EXPECT_EQ(PlacedPoolHead(original), placed);
  std::vector<uint32_t> identity(cfg.cluster.num_spine);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(original.controller.spine_of_partition(), identity);
  EXPECT_EQ(original.allocation->bytes(), bytes);
}

}  // namespace
}  // namespace distcache
