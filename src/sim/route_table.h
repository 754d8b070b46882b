// Precomputed per-head-rank routing decisions ("amortized hash routing") for the
// request-level engines: the allocation and placement hashes are evaluated once per
// table build, not once per request. Tables are immutable snapshots of one cached
// set at one hot shift: a hot-spot shift or a cache re-allocation builds a fresh
// table and swaps it in (see engine_core.h), so the hot path never sees a table
// mutate. Failure recovery builds none: a table names each key's layer-0 copy by
// its h0 *partition*, and the snapshot that installs it carries the controller's
// partition→switch map, which the engines resolve the candidate through (§4.4: a
// spine failure is an event on partitions). Tables are indexed by *popularity
// rank*; the `hot_shift` build parameter is the rank→key rotation of the workload
// phase the table serves (see common/workload.h), so entry r always routes the key
// the clients actually query at rank r.
//
// An entry carries the key's full candidate list — one cached copy per layer of
// the hierarchy, packed (layer, index) in ascending layer order, so only the
// first candidate can be a layer-0 partition — and the engines run the
// power-of-k choice over however many layers the cluster has. The entry is
// 8 bytes (the two-layer hot path is cache-footprint-critical: eight entries
// per cache line): the first two candidates are inline, and entries with more
// than two candidates spill the whole list into the table's shared overflow
// array. It stores no server: the primary server is a pure function of the
// key (Placement::ServerOf), which the engines evaluate only where a request
// charges a server, as a client ToR hashes the key to its storage server
// (§3.1); only the cache candidates are allocation state.
#ifndef DISTCACHE_SIM_ROUTE_TABLE_H_
#define DISTCACHE_SIM_ROUTE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.h"
#include "sim/cluster_model.h"

namespace distcache {

// Candidates pack the layer into the top 3 bits of a 29-bit word
// (kMaxCacheLayers = 6 < 8, see kCandLayerShift in net/topology.h), so a
// candidate fits a RouteEntry field or one overflow word at any supported
// depth.
inline uint32_t PackCandidate(CacheNodeId node) {
  return (node.layer << kCandLayerShift) | node.index;
}
inline CacheNodeId UnpackCandidate(uint32_t packed) {
  return {packed >> kCandLayerShift, packed & kCandIndexMask};
}

struct RouteEntry {
  enum Kind : uint8_t {
    kUncached = 0,   // read goes to the primary server
    kCached = 1,     // power-of-k among the cached copies (one per layer, ≤ num)
    kReplicated = 2, // CacheReplication: all layer-0 nodes + leaf (slow path)
  };
  // Width of c0 and c1: a packed candidate or an overflow offset.
  static constexpr uint32_t kWordBits = 29;
  // Overflow words a table may hold, so that every run's offset fits c1.
  static constexpr uint64_t kMaxOverflowWords = uint64_t{1} << kWordBits;

  uint64_t kind : 2 = kUncached;
  // Cached-copy count. For kReplicated: 1 when the key also has a leaf copy
  // (in c0), 0 otherwise — the layer-0 replicas are implicit.
  uint64_t num : 3 = 0;
  // num <= 2: the packed candidates, ascending layer (a layer-0 one as its
  // partition). num > 2: c0 is the first candidate and c1 the offset of the
  // full num-candidate run in RouteTable::overflow.
  uint64_t c0 : kWordBits = 0;
  uint64_t c1 : kWordBits = 0;
};
static_assert(sizeof(RouteEntry) == 8, "RouteEntry must stay 8 bytes");
static_assert(kMaxCacheLayers < (1u << 3), "num and the layer field are 3 bits");
static_assert((((kMaxCacheLayers - 1) << kCandLayerShift) | kCandIndexMask) <
                  (uint64_t{1} << RouteEntry::kWordBits),
              "a packed candidate must fit c0/c1");

struct RouteTable {
  // The hot prefix: one entry per rank [0, entries.size()). A *compact* table
  // truncates one past its deepest cached table rank, found in one pass over
  // the allocation's cached keys — every rank at or beyond
  // entries.size() is uncached by construction, and the engines route it with
  // no entry (the fallback in EngineCore::Process), which is bit-identical to
  // reading a dense kUncached entry. A dense table (BuildDenseRouteTable) spans
  // the full candidate pool, so the fallback branch is never taken and
  // behavior is unchanged.
  std::vector<RouteEntry> entries;
  // Packed candidate runs of entries with num > 2 (see RouteEntry::c1), at
  // most RouteEntry::kMaxOverflowWords.
  std::vector<uint32_t> overflow;

  size_t size() const { return entries.size(); }
  // Length of the stored hot prefix — the engines' fallback threshold.
  size_t hot_len() const { return entries.size(); }
  // Heap bytes this snapshot actually holds (capacity, not size — the exact
  // reserve in the builders makes the two equal; a divergence is a regression).
  size_t bytes() const {
    return entries.capacity() * sizeof(RouteEntry) +
           overflow.capacity() * sizeof(uint32_t);
  }
};

// A plan step's route snapshot: the table of the step's cached set and hot
// shift, and the controller's layer-0 partition→switch map after the step.
// Steps of one (cached set, shift) share the table; each carries its own map
// (num_spine words). Null table and map: the step changes no routes.
struct RouteSnapshot {
  std::shared_ptr<const RouteTable> table;
  std::shared_ptr<const std::vector<uint32_t>> spine_of_partition;
};

// A non-owning view of a route snapshot: what the engines install and route
// through. The storage it views, which the caller keeps alive (a forked
// shard reads its supervisor's, inherited), must outlive every request
// routed through the view. The default view is *absent* (a plan step that
// changes no routes; installing it keeps the current routes), which differs
// from a present view of an empty compact table (hot_len 0: every rank takes
// the computed uncached fallback). A view of a bare table carries no map, so
// installing it keeps the engine's current one (the identity at the start of
// a run). Like std::string_view it refuses temporaries: a view of an rvalue
// table, shared_ptr or snapshot would dangle.
struct RouteView {
  const RouteEntry* entries = nullptr;
  uint32_t hot_len = 0;  // ranks at or beyond it are uncached by construction
  const uint32_t* overflow = nullptr;
  // The layer-0 partition→switch map to install with the table, num_spine
  // words; null keeps the current one.
  const uint32_t* spine_of_partition = nullptr;
  bool present = false;

  RouteView() = default;
  RouteView(const RouteTable& table)  // NOLINT: implicit by design
      : entries(table.entries.data()),
        hot_len(static_cast<uint32_t>(table.hot_len())),
        overflow(table.overflow.data()),
        present(true) {}
  // A null snapshot gives the absent view.
  RouteView(const std::shared_ptr<const RouteTable>& table)  // NOLINT
      : RouteView(table != nullptr ? RouteView(*table) : RouteView()) {}
  RouteView(const RouteSnapshot& snapshot)  // NOLINT
      : RouteView(snapshot.table) {
    if (snapshot.spine_of_partition != nullptr) {
      spine_of_partition = snapshot.spine_of_partition->data();
    }
  }
  RouteView(RouteTable&&) = delete;
  RouteView(std::shared_ptr<const RouteTable>&&) = delete;
  RouteView(RouteSnapshot&&) = delete;
};

// Builds the table for the allocation's current cached set (post-refill if it
// re-allocated), layer-0 copies named by partition (CacheAllocation::CopiesOf),
// so no failure remap enters it. `hot_shift` is the workload's current rank→key
// rotation: entry r describes key (r + hot_shift) % num_keys. Compact by
// default (one entry per rank up to the deepest cached table rank, which is
// the allocation's CachedRankEnd() when hot_shift is 0 and no refill ran;
// exact-reserved, O(cached) time and memory); builds the full-pool dense
// layout instead when model.dense_routes is set (the differential-test /
// memory-baseline mode).
RouteTable BuildRouteTable(const ClusterModel& model, uint64_t hot_shift = 0);

// The pre-compaction layout: one entry per rank [0, model.pool), uncached tail
// materialized. Kept for the compact-vs-dense equivalence tests and as the
// memory baseline bench_memwall gates against.
RouteTable BuildDenseRouteTable(const ClusterModel& model, uint64_t hot_shift = 0);

}  // namespace distcache

#endif  // DISTCACHE_SIM_ROUTE_TABLE_H_
