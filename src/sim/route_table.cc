#include "sim/route_table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace distcache {

namespace {

// Fills entries [0, end) — the shared body of the compact and dense builds.
// `reserve_overflow` is the exact spill count so neither build ever pays a
// doubling-growth spike during plan construction.
RouteTable BuildPrefix(const ClusterModel& model, uint64_t hot_shift,
                       uint64_t end, size_t reserve_overflow) {
  if (reserve_overflow > RouteEntry::kMaxOverflowWords) {
    // c1 would wrap and name another key's run.
    std::fprintf(stderr,
                 "BuildRouteTable: %zu overflow words exceed the %llu a "
                 "route entry can address\n",
                 reserve_overflow,
                 static_cast<unsigned long long>(RouteEntry::kMaxOverflowWords));
    std::abort();
  }
  RouteTable routes;
  routes.entries.reserve(end);
  routes.entries.resize(end);
  routes.overflow.reserve(reserve_overflow);
  for (uint64_t rank = 0; rank < end; ++rank) {
    const uint64_t key = KeyOfRank(rank, hot_shift, model.cfg.num_keys);
    RouteEntry& e = routes.entries[rank];
    const CacheCopies copies = model.allocation->CopiesOf(key);
    if (copies.replicated_all_spines) {
      e.kind = RouteEntry::kReplicated;
      // The leaf copy (if any) rides in c0; the layer-0 replicas are implicit.
      if (const auto leaf = copies.leaf()) {
        e.num = 1;
        e.c0 = PackCandidate({copies.leaf_layer, *leaf});
      }
    } else if (copies.num > 0) {
      e.kind = RouteEntry::kCached;
      e.num = copies.num;
      if (copies.num <= 2) {
        e.c0 = PackCandidate(copies.nodes[0]);
        if (copies.num == 2) {
          e.c1 = PackCandidate(copies.nodes[1]);
        }
      } else {
        e.c0 = PackCandidate(copies.nodes[0]);
        e.c1 = routes.overflow.size();
        for (uint8_t i = 0; i < copies.num; ++i) {
          routes.overflow.push_back(PackCandidate(copies.nodes[i]));
        }
      }
    }
  }
  return routes;
}

// Where the cached keys land in table-rank space: entry r describes key
// (r + hot_shift) % num_keys, so cached key k sits at rank (k − hot_shift) mod
// num_keys and enters a table iff that rank is below the pool. One pass over
// the allocation's cached keys yields the compact table's end (one past the
// deepest such rank) and the exact overflow both builds spill.
struct CachedSpan {
  uint64_t end = 0;
  size_t overflow = 0;
};

CachedSpan FindCachedSpan(const ClusterModel& model, uint64_t hot_shift) {
  const uint64_t num_keys = model.cfg.num_keys;
  const uint64_t back = hot_shift % num_keys;
  CachedSpan span;
  model.allocation->ForEachCachedKey(
      [&](uint64_t key, const CacheCopies& copies) {
        if (key >= num_keys) {
          return;  // no rank of the key space ever queries it
        }
        const uint64_t rank = key >= back ? key - back : key + num_keys - back;
        if (rank >= model.pool) {
          return;
        }
        span.end = std::max(span.end, rank + 1);
        if (!copies.replicated_all_spines && copies.num > 2) {
          span.overflow += copies.num;
        }
      });
  return span;
}

}  // namespace

RouteTable BuildRouteTable(const ClusterModel& model, uint64_t hot_shift) {
  if (model.dense_routes) {
    return BuildDenseRouteTable(model, hot_shift);
  }
  // Every rank at or beyond the span's end gets exactly the kUncached entry
  // the engines' no-entry fallback stands in for, which makes the truncated
  // table bit-identical to the dense one at ~C entries instead of the full
  // 8×-budget candidate pool — built in O(cached) time as well as memory.
  const CachedSpan span = FindCachedSpan(model, hot_shift);
  return BuildPrefix(model, hot_shift, span.end, span.overflow);
}

RouteTable BuildDenseRouteTable(const ClusterModel& model, uint64_t hot_shift) {
  return BuildPrefix(model, hot_shift, model.pool,
                     FindCachedSpan(model, hot_shift).overflow);
}

}  // namespace distcache
