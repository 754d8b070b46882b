// RouteView: the one non-owning route snapshot the engine core installs. It
// refuses temporaries (a view of one would dangle), a zero-entry table is a
// present view, and only a null snapshot gives the absent view — which keeps
// the engine's current routes. A snapshot's map resolves layer-0 candidates;
// a view without one keeps the installed map.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

static_assert(!std::is_constructible_v<RouteView, std::shared_ptr<const RouteTable>&&>,
              "a view of a temporary shared_ptr would dangle");
static_assert(!std::is_constructible_v<RouteView, RouteTable&&>,
              "a view of a temporary table would dangle");
static_assert(std::is_convertible_v<const RouteTable&, RouteView>);
static_assert(std::is_convertible_v<const std::shared_ptr<const RouteTable>&, RouteView>);
static_assert(!std::is_constructible_v<RouteView, RouteSnapshot&&>,
              "a view of a temporary snapshot would dangle");
static_assert(std::is_convertible_v<const RouteSnapshot&, RouteView>);

TEST(RouteView, ZeroEntryTableIsPresent) {
  const RouteTable empty;
  const RouteView view = empty;
  EXPECT_TRUE(view.present);
  EXPECT_EQ(view.hot_len, 0u);
}

TEST(RouteView, NullSnapshotIsAbsent) {
  const std::shared_ptr<const RouteTable> null_table;
  const RouteView view = null_table;
  EXPECT_FALSE(view.present);
  EXPECT_FALSE(RouteView().present);

  const auto table = std::make_shared<const RouteTable>();
  const RouteView from_shared = table;
  EXPECT_TRUE(from_shared.present);
  EXPECT_EQ(from_shared.entries, table->entries.data());
}

struct NullSink {
  void AddCacheLoad(CacheNodeId, double) {}
  void AddServerLoad(uint32_t, double) {}
};

// Records the layer-0 node of the last cache charge.
struct SpineSink {
  uint32_t spine = UINT32_MAX;
  void AddCacheLoad(CacheNodeId node, double) {
    if (node.layer == 0) {
      spine = node.index;
    }
  }
  void AddServerLoad(uint32_t, double) {}
};

// Reads of the hottest rank hit the cache under the built table, keep hitting
// after an absent view is installed, and all go to the server once a present
// zero-entry table is.
TEST(RouteView, AbsentViewKeepsTheCurrentRoutes) {
  ClusterConfig cfg;
  cfg.num_spine = 4;
  cfg.num_racks = 4;
  cfg.servers_per_rack = 2;
  cfg.per_switch_objects = 8;
  cfg.num_keys = 10'000;
  cfg.write_ratio = 0.0;
  const ClusterModel model(cfg);
  EngineCore core(&model, 1, 2, /*enable_observer=*/false);
  BackendStats st;
  st.cache_load = model.ZeroCacheLoads();
  st.server_load.assign(model.num_servers(), 0.0);
  core.BindStats(&st);
  NullSink sink;

  const RouteTable routes = BuildRouteTable(model);
  ASSERT_GT(routes.hot_len(), 0u);
  ASSERT_EQ(routes.entries[0].kind, RouteEntry::kCached);
  core.SetRoutes(routes);
  core.Process(sink, 0);
  EXPECT_EQ(st.cache_hits, 1u);

  core.SetRoutes(RouteView());
  core.Process(sink, 0);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.server_reads, 0u);

  const RouteTable empty;
  core.SetRoutes(empty);
  core.Process(sink, 0);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.server_reads, 1u);
}

// A write charges every copy of the hottest rank: its layer-0 copy lands on
// the partition's switch under the identity map, on the switch a snapshot's
// map names once that is installed, and stays there when a bare table (no
// map) is installed after it.
TEST(RouteView, SnapshotMapResolvesLayerZeroCandidates) {
  ClusterConfig cfg;
  cfg.num_spine = 4;
  cfg.num_racks = 4;
  cfg.servers_per_rack = 2;
  cfg.per_switch_objects = 8;
  cfg.num_keys = 10'000;
  cfg.write_ratio = 1.0;
  const ClusterModel model(cfg);
  EngineCore core(&model, 1, 2, /*enable_observer=*/false);
  BackendStats st;
  st.cache_load = model.ZeroCacheLoads();
  st.server_load.assign(model.num_servers(), 0.0);
  core.BindStats(&st);
  SpineSink sink;

  RouteSnapshot snapshot;
  snapshot.table = std::make_shared<const RouteTable>(BuildRouteTable(model));
  const RouteEntry& hottest = snapshot.table->entries[0];
  ASSERT_EQ(hottest.kind, RouteEntry::kCached);
  const CacheNodeId top = UnpackCandidate(hottest.c0);
  ASSERT_EQ(top.layer, 0u);
  core.SetRoutes(snapshot.table);
  core.Process(sink, 0);
  EXPECT_EQ(sink.spine, top.index);

  std::vector<uint32_t> map = {0, 1, 2, 3};
  map[top.index] = (top.index + 1) % 4;
  snapshot.spine_of_partition =
      std::make_shared<const std::vector<uint32_t>>(map);
  core.SetRoutes(snapshot);
  core.Process(sink, 0);
  EXPECT_EQ(sink.spine, (top.index + 1) % 4);

  core.SetRoutes(*snapshot.table);
  core.Process(sink, 0);
  EXPECT_EQ(sink.spine, (top.index + 1) % 4);
}

}  // namespace
}  // namespace distcache
