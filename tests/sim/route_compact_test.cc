// Compact route tables (the PR 9 memory tentpole): the table stores only the
// hot prefix of ranks that can ever be cached, and the engines route the
// uncached tail with no entry. The contract under
// test is *bit identity*: a run on compact tables must match a run on the
// pre-compaction dense layout field for field — same counters, same per-node
// load vectors to the last ulp — across engines, hierarchy depths, and the
// full failure/shift/realloc timeline. (The dense runs transitively match the
// PR 4/5/6 golden pins, which the golden tests assert against the compact
// default.)
#include <gtest/gtest.h>


#include "common/workload.h"
#include "sim/cluster_model.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

SimBackendConfig GoldenBackendConfig() {
  SimBackendConfig bcfg;
  bcfg.cluster.mechanism = Mechanism::kDistCache;
  bcfg.cluster.num_spine = 8;
  bcfg.cluster.num_racks = 8;
  bcfg.cluster.servers_per_rack = 4;
  bcfg.cluster.per_switch_objects = 50;
  bcfg.cluster.num_keys = 1'000'000;
  bcfg.cluster.zipf_theta = 0.99;
  bcfg.cluster.write_ratio = 0.2;
  bcfg.cluster.seed = 42;
  bcfg.batch_size = 64;
  return bcfg;
}

std::vector<ClusterEvent> FullTimeline() {
  return {
      ClusterEvent::FailSpine(40'000, 2),
      ClusterEvent::RunRecovery(60'000),
      ClusterEvent::ShiftHotspot(90'000, 12'345),
      ClusterEvent::ReallocateCache(120'000),
      ClusterEvent::RecoverSpine(150'000, 2),
  };
}

// Field-for-field equality, doubles included: compaction must not change one
// bit of any statistic.
void ExpectBitIdentical(const BackendStats& compact, const BackendStats& dense) {
  EXPECT_EQ(compact.requests, dense.requests);
  EXPECT_EQ(compact.reads, dense.reads);
  EXPECT_EQ(compact.writes, dense.writes);
  EXPECT_EQ(compact.cache_hits, dense.cache_hits);
  EXPECT_EQ(compact.spine_hits, dense.spine_hits);
  EXPECT_EQ(compact.leaf_hits, dense.leaf_hits);
  EXPECT_EQ(compact.server_reads, dense.server_reads);
  EXPECT_EQ(compact.dropped, dense.dropped);
  ASSERT_EQ(compact.cache_load.size(), dense.cache_load.size());
  for (size_t l = 0; l < compact.cache_load.size(); ++l) {
    EXPECT_EQ(compact.cache_load[l], dense.cache_load[l]) << "cache layer " << l;
  }
  EXPECT_EQ(compact.server_load, dense.server_load);
  ASSERT_EQ(compact.series.size(), dense.series.size());
  for (size_t i = 0; i < compact.series.size(); ++i) {
    EXPECT_EQ(compact.series[i].cache_hits, dense.series[i].cache_hits) << i;
    EXPECT_EQ(compact.series[i].dropped, dense.series[i].dropped) << i;
  }
}

// Engine sweep: {sequential, sharded x1} x {L=2, L=3} x {static, full
// timeline}, dense vs compact. x1 is the deterministic substrate the golden
// pins use — at 2+ shards the spine/leaf split is scheduling-dependent
// (telemetry arrival timing feeds the PoT choice), so bit-level comparison is
// only defined at one shard; multi-shard parity is sim_backend_test.cc's
// statistical job. Multiproc gets the same x1 treatment in multiproc_test.cc
// (it needs the runnability skip).
TEST(CompactRoutes, EnginesBitIdenticalToDenseTables) {
  constexpr uint64_t kRequests = 200'000;
  for (const BackendKind kind : {BackendKind::kSequential, BackendKind::kSharded}) {
    for (const size_t layers : {size_t{2}, size_t{3}}) {
      for (const bool timeline : {false, true}) {
        SimBackendConfig bcfg = GoldenBackendConfig();
        if (layers == 3) {
          bcfg.cluster.cache_layers.assign(3, LayerSpec{8, 50});
        }
        if (timeline) {
          bcfg.events = FullTimeline();
          bcfg.sample_interval = 40'000;
        }
        const BackendStats compact =
            MakeSimBackend(kind, bcfg)->Run(kRequests);
        SimBackendConfig dense_cfg = bcfg;
        dense_cfg.dense_routes = true;
        const BackendStats dense =
            MakeSimBackend(kind, dense_cfg)->Run(kRequests);
        SCOPED_TRACE((kind == BackendKind::kSequential ? "sequential" : "sharded") +
                     std::string(" L=") + std::to_string(layers) +
                     (timeline ? " timeline" : " static"));
        ExpectBitIdentical(compact, dense);
        // The dense build must actually be the pre-compaction layout and the
        // compact one must actually be small — guard against both modes
        // silently collapsing into one.
        EXPECT_GT(dense.route_table_bytes, compact.route_table_bytes);
      }
    }
  }
}

// Property test: the compact table is a strict prefix of the dense one, and
// every rank at or past the prefix is uncached in the dense build — i.e. the
// no-entry fallback in EngineCore::Process takes the same route the dense
// entry stored (entries hold no server; the engines charge
// Placement::ServerOf of the key either way). Swept over
// L=2 and L=3 (overflow runs), rotations that leave the cached keys in place,
// rotate them out of the pool window, or wrap them to table ranks >= 3,000,
// and a model re-allocated onto a shifted hot set. Both builds reserve exactly
// what they fill, so bytes() is the real footprint.
TEST(CompactRoutes, TailRanksAreUncached) {
  const uint64_t num_keys = GoldenBackendConfig().cluster.num_keys;
  for (const size_t layers : {size_t{2}, size_t{3}}) {
    for (const bool refilled : {false, true}) {
      SimBackendConfig bcfg = GoldenBackendConfig();
      if (layers == 3) {
        bcfg.cluster.cache_layers.assign(3, LayerSpec{8, 50});
      }
      ClusterModel model(bcfg.cluster);
      if (refilled) {
        // The controller's view after a 12,345-rank hot-spot shift.
        std::vector<uint64_t> hottest_first(model.pool);
        for (uint64_t rank = 0; rank < model.pool; ++rank) {
          hottest_first[rank] = KeyOfRank(rank, 12'345, num_keys);
        }
        model.ReallocateCache(hottest_first);
      }
      for (const uint64_t hot_shift :
           {uint64_t{0}, uint64_t{12'345}, num_keys - 3'000}) {
        SCOPED_TRACE("L=" + std::to_string(layers) +
                     (refilled ? " refilled" : " identity") + " shift " +
                     std::to_string(hot_shift));
        const RouteTable compact = BuildRouteTable(model, hot_shift);
        const RouteTable dense = BuildDenseRouteTable(model, hot_shift);
        ASSERT_EQ(dense.entries.size(), model.pool);
        ASSERT_LT(compact.entries.size(), dense.entries.size());
        EXPECT_EQ(compact.entries.capacity(), compact.entries.size());
        EXPECT_EQ(compact.overflow.capacity(), compact.overflow.size());
        EXPECT_EQ(dense.entries.capacity(), dense.entries.size());
        EXPECT_EQ(dense.overflow.capacity(), dense.overflow.size());
        if (hot_shift == 0 && !refilled) {
          // Identity rotation: the prefix is exactly the allocation's cached span.
          ASSERT_EQ(compact.entries.size(), model.allocation->CachedRankEnd());
        } else if (!compact.entries.empty()) {
          // Rotated rank space: the table ends at the deepest cached *table*
          // rank (a shift can legally rotate every cached key out of the pool
          // window, leaving an empty prefix — all-fallback, still correct).
          EXPECT_NE(compact.entries.back().kind, RouteEntry::kUncached);
        }
        if (hot_shift == num_keys - 3'000 && !refilled) {
          // The wrap puts every cached key at table rank >= 3,000.
          EXPECT_GT(compact.entries.size(), 3'000u);
          for (size_t rank = 0; rank < 3'000; ++rank) {
            ASSERT_EQ(compact.entries[rank].kind, RouteEntry::kUncached) << rank;
          }
        }
        // Stored prefix: identical entries (field-wise: the word has a padding
        // bit memcmp would trip on) and identical overflow runs.
        for (size_t rank = 0; rank < compact.entries.size(); ++rank) {
          const RouteEntry& c = compact.entries[rank];
          const RouteEntry& d = dense.entries[rank];
          ASSERT_TRUE(c.kind == d.kind && c.num == d.num && c.c0 == d.c0 &&
                      c.c1 == d.c1)
              << "prefix rank " << rank;
        }
        EXPECT_EQ(compact.overflow, dense.overflow);
        // Dropped tail: every dropped entry was uncached.
        for (size_t rank = compact.entries.size(); rank < dense.entries.size();
             ++rank) {
          const RouteEntry& e = dense.entries[rank];
          ASSERT_EQ(e.kind, RouteEntry::kUncached) << "rank " << rank;
          ASSERT_EQ(e.num, 0u) << "rank " << rank;
        }
      }
    }
  }
}

// The memory claim at memory-wall geometry: with a candidate pool that
// approaches the key space and a cached set 100x smaller, the per-snapshot
// bytes drop >= 50x — and the builders reserve exactly (capacity == size, the
// no-doubling-spike fix), so bytes() measures real footprint.
TEST(CompactRoutes, SnapshotBytesDropAtMemwallGeometry) {
  SimBackendConfig bcfg = GoldenBackendConfig();
  bcfg.cluster.num_keys = 4'000'000;
  bcfg.cluster.candidate_pool = 2'000'000;
  ClusterModel model(bcfg.cluster, /*build_popularity=*/false);
  EXPECT_EQ(model.pool, 2'000'000u);
  const RouteTable compact = BuildRouteTable(model);
  const RouteTable dense = BuildDenseRouteTable(model);
  EXPECT_EQ(compact.entries.capacity(), compact.entries.size());
  EXPECT_EQ(compact.overflow.capacity(), compact.overflow.size());
  EXPECT_EQ(dense.entries.capacity(), dense.entries.size());
  EXPECT_GE(dense.bytes(), 50 * compact.bytes())
      << "dense " << dense.bytes() << " B vs compact " << compact.bytes() << " B";
}

// The candidate_pool override must leave the *default* auto shape untouched
// (0 = the historical 8x-budget pool every golden pins) and clamp to num_keys.
TEST(CompactRoutes, CandidatePoolOverrideDefaultsAndClamps) {
  SimBackendConfig bcfg = GoldenBackendConfig();
  const ClusterModel auto_model(bcfg.cluster, /*build_popularity=*/false);
  EXPECT_EQ(auto_model.pool, 8u * (8 + 8) * 50);
  bcfg.cluster.candidate_pool = bcfg.cluster.num_keys + 1'000'000;
  const ClusterModel clamped(bcfg.cluster, /*build_popularity=*/false);
  EXPECT_EQ(clamped.pool, bcfg.cluster.num_keys);
}

// An entry is one 8-byte word: kind, num and two 29-bit words side by side, a
// packed candidate being a 3-bit layer over a 26-bit index. Each field must
// come back unchanged at its limit, without bleeding into its neighbours.
TEST(RouteEntryPacking, FieldsRoundTripAtTheirLimits) {
  static_assert(sizeof(RouteEntry) == 8);
  const CacheNodeId deepest{kMaxCacheLayers - 1, kCandIndexMask};
  const CacheNodeId leaf{1, 7};
  RouteEntry pair;
  pair.kind = RouteEntry::kCached;
  pair.num = 2;
  pair.c0 = PackCandidate(deepest);
  pair.c1 = PackCandidate(leaf);
  EXPECT_EQ(pair.kind, RouteEntry::kCached);
  EXPECT_EQ(pair.num, 2u);
  EXPECT_EQ(UnpackCandidate(pair.c0), deepest);
  EXPECT_EQ(UnpackCandidate(pair.c1), leaf);

  RouteEntry spill;
  spill.kind = RouteEntry::kCached;
  spill.num = kMaxCacheLayers;
  spill.c0 = PackCandidate(deepest);
  spill.c1 = RouteEntry::kMaxOverflowWords - 1;
  EXPECT_EQ(spill.kind, RouteEntry::kCached);
  EXPECT_EQ(spill.num, kMaxCacheLayers);
  EXPECT_EQ(UnpackCandidate(spill.c0), deepest);
  EXPECT_EQ(spill.c1, (uint64_t{1} << 29) - 1);

  RouteEntry replicated;
  replicated.kind = RouteEntry::kReplicated;
  replicated.num = 1;
  replicated.c0 = PackCandidate(leaf);
  EXPECT_EQ(replicated.kind, RouteEntry::kReplicated);
  EXPECT_EQ(replicated.num, 1u);
  EXPECT_EQ(UnpackCandidate(replicated.c0), leaf);
  EXPECT_EQ(replicated.c1, 0u);
}

// The config check keeps every node index inside the packed candidate's 26
// bits: a middle layer of kCandIndexMask nodes passes, one more is refused.
// Checked on the config alone; no cluster is built.
TEST(RouteEntryPacking, ValidateCacheLayersBoundsTheCandidateIndex) {
  ClusterConfig cfg = GoldenBackendConfig().cluster;
  cfg.cache_layers = {LayerSpec{cfg.num_spine, 50}, LayerSpec{kCandIndexMask, 1},
                      LayerSpec{cfg.num_racks, 50}};
  EXPECT_EQ(ValidateCacheLayers(cfg), "");
  cfg.cache_layers[1].nodes = kCandIndexMask + 1;
  EXPECT_EQ(ValidateCacheLayers(cfg),
            "cache layer 1 has 67108864 nodes; the route-table candidate "
            "packing supports at most 67108863 per layer");
}

}  // namespace
}  // namespace distcache
