// Pluggable per-node cache semantics (the FlexiCAS-style policy layer).
//
// The engines historically hard-coded one idealized cache model: the controller
// statically allocates the hottest objects across layers (core/allocation) and a
// request hits iff its key is in that precomputed set. That is the paper's
// DistCache mechanism — but it makes the headline claim ("balanced allocation
// beats naive per-node caching") an assertion rather than a measurement. This
// module turns the per-node cache behavior into a policy axis with three
// independent knobs:
//
//   * CachePolicyKind — admission + replacement:
//       - kDistCache   : the static top-k allocation + PoT routing (default; the
//                        engines keep their historical hot path bit-for-bit);
//       - kStaticTopK  : kDistCache with first-choice routing
//                        (RoutingPolicy::kFirstChoice: the first alive
//                        candidate, no power-of-two) — isolates the
//                        balanced-*routing* contribution from the contents;
//       - kLru / kLfu / kFifo / kSegmented : dynamic per-node caches that admit
//                        on demand and evict by recency / frequency / arrival
//                        order / segmented-LRU (SLRU). LFU keeps a CountMinSketch
//                        of missed keys per node, so re-admitted keys inherit
//                        their pre-eviction frequency estimate (the TinyLFU /
//                        NHC-style admission insight: a key only displaces a
//                        resident line if its history warrants the slot — the
//                        sketch can make Admit() reject its own key).
//   * HierarchyMode — how the dynamic policies compose across LayerSpec layers:
//       - kInclusive : a hit (or miss fill) installs the line at every layer from
//                      the leaf up; evicting a line from a lower layer
//                      back-invalidates the upper copies (upper ⊆ lower — the
//                      classic inclusive invariant);
//       - kExclusive : a line lives at exactly one layer; admission happens at
//                      the top, victims demote downward, and a hit below the top
//                      promotes the line back up (at most one copy per key).
//   * WritePolicy — what a write does to cached copies:
//       - kWriteThrough : every resident copy is updated in place (the engine
//                         charges the §4.3 coherence costs per copy, exactly like
//                         the static path);
//       - kWriteBack    : the topmost resident copy absorbs the write and is
//                         marked dirty; dirty lines are written back to the
//                         key's primary server when they leave the hierarchy.
//                         Dirty bits obey a conservation law the tests pin:
//                         created = written-back + merged + lost + resident.
//
// Layer-candidate geometry is shared with the static allocation: upper layer l
// uses the independent hash partition CacheAllocation::PartitionOf(l, key), the
// leaf layer is rack-bound via Placement::RackOf(key). Crucially the dynamic
// runtime reads only these *pure functions* — never the allocation's contents or
// the controller's failure remap, both of which the timeline plan walk mutates
// at construction time (see sim/engine_core.h). A dead top-layer node is simply
// skipped (its layer contributes a miss) and its cache is wiped on failure.
#ifndef DISTCACHE_CORE_CACHE_POLICY_H_
#define DISTCACHE_CORE_CACHE_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/mechanism.h"
#include "core/pot_router.h"
#include "kv/placement.h"
#include "net/topology.h"
#include "sketch/count_min.h"

namespace distcache {

enum class CachePolicyKind : uint8_t {
  kDistCache,   // static balanced allocation + PoT routing (the paper's design)
  kStaticTopK,  // kDistCache with first-choice (first alive candidate) routing
  kLru,
  kLfu,
  kFifo,
  kSegmented,   // segmented LRU (probation + protected)
};

enum class HierarchyMode : uint8_t { kInclusive, kExclusive };
enum class WritePolicy : uint8_t { kWriteThrough, kWriteBack };

// True for the policies that maintain per-node cache state at runtime (the
// static pair routes against the precomputed allocation instead).
constexpr bool PolicyIsDynamic(CachePolicyKind kind) {
  return kind != CachePolicyKind::kDistCache &&
         kind != CachePolicyKind::kStaticTopK;
}

const char* CachePolicyName(CachePolicyKind kind);
const char* HierarchyModeName(HierarchyMode mode);
const char* WritePolicyName(WritePolicy policy);

// Parse the CLI spellings ("distcache", "static-topk", "lru", "lfu", "fifo",
// "segmented" / "inclusive", "exclusive" / "write-through", "write-back").
// Return false (output untouched) on an unknown name.
bool ParseCachePolicy(const std::string& name, CachePolicyKind* out);
bool ParseHierarchyMode(const std::string& name, HierarchyMode* out);
bool ParseWritePolicy(const std::string& name, WritePolicy* out);

// Empty string when the combination is consistent, else a human-readable error:
// non-default policies are defined for the kDistCache mechanism only (they
// replace its allocation, not the replication/partition baselines), and the
// hierarchy/write knobs apply to the dynamic policies only (the static
// allocation models multi-layer copies and write-through coherence natively),
// and kStaticTopK fixes first-choice routing, so it takes no other routing.
std::string ValidateCachePolicy(CachePolicyKind policy, HierarchyMode hierarchy,
                                WritePolicy write, Mechanism mechanism,
                                RoutingPolicy routing);

// A line leaving a node (capacity eviction, demotion, or invalidation).
struct EvictedLine {
  uint64_t key = 0;
  bool dirty = false;
};

// One node's cache: bounded key set + per-line dirty bit, replacement order
// owned by the concrete policy. Implementations must be deterministic — the
// sequential engine's policy runs are pinned by golden tests.
class NodeCache {
 public:
  enum class MarkResult : uint8_t { kAbsent, kWasClean, kWasDirty };

  virtual ~NodeCache() = default;

  // Hit test + replacement-state touch (LRU promote, LFU count, SLRU segment
  // promotion). An SLRU promotion can overflow the protected segment and push a
  // line out of the node entirely; such a lookup-eviction is reported in
  // `evicted` exactly like an Admit() victim.
  virtual bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) = 0;
  // Hit test without touching replacement state (the probe pass uses this so
  // requests dropped by the failure blackhole never perturb the cache).
  virtual bool Contains(uint64_t key) const = 0;
  // Inserts `key` (caller guarantees !Contains(key) and capacity() > 0) and
  // returns the displaced line, if any. A frequency-filtering policy may return
  // the admitted key itself — admission rejected.
  virtual std::optional<EvictedLine> Admit(uint64_t key, bool dirty) = 0;
  // Sets the dirty bit without touching replacement state; reports the previous
  // state (kAbsent when the key is not resident).
  virtual MarkResult MarkDirty(uint64_t key) = 0;
  // Removes `key`, returning the line if it was resident.
  virtual std::optional<EvictedLine> Erase(uint64_t key) = 0;
  // Visits every resident line (order unspecified).
  virtual void ForEach(
      const std::function<void(uint64_t key, bool dirty)>& fn) const = 0;
  // Drops every line (failure wipe); dirty accounting is the caller's job.
  virtual void Clear() = 0;

  virtual size_t size() const = 0;
  size_t capacity() const { return capacity_; }

 protected:
  explicit NodeCache(size_t capacity) : capacity_(capacity) {}

 private:
  size_t capacity_;
};

// The miss-history sketch configuration of one LFU node (exposed so the
// differential tests can run a bit-identical reference sketch).
CountMinSketch::Config LfuHistorySketchConfig(uint64_t seed);

// Factory for one node's cache. `seed` feeds the LFU history sketch (ignored by
// the other policies). `kind` must be dynamic.
std::unique_ptr<NodeCache> MakeNodeCache(CachePolicyKind kind, size_t capacity,
                                         uint64_t seed);

struct CachePolicyConfig {
  CachePolicyKind policy = CachePolicyKind::kLru;
  HierarchyMode hierarchy = HierarchyMode::kInclusive;
  WritePolicy write = WritePolicy::kWriteThrough;
  // Per-node LFU history-sketch seeds derive from this.
  uint64_t seed = 0x9a11c7ULL;
};

// The dynamic-policy runtime: a [layer][node] grid of NodeCaches plus the
// hierarchy and write semantics. One instance per engine stream (the sequential
// engine owns one; each sharded worker owns a full-capacity replica — under the
// hash-partitioned candidate geometry every shard's stream thins uniformly, so
// per-shard replicas agree statistically, mirroring the telemetry-staleness
// relaxation the sharded backend already makes).
//
// Protocol (driven by EngineCore::ProcessPolicy):
//   reads:  Probe() (pure) → the engine applies drop/transit semantics →
//           CommitHit()/CommitMiss() mutate state;
//   writes: WriteThrough() / WriteBack() (the engine checks the blackhole
//           first, so only delivered writes touch state).
// Every mutating call appends the primary-server ids of any dirty lines that
// left the hierarchy to `writeback_servers`; the engine charges those as
// server writes.
class CachePolicyRuntime {
 public:
  struct Counters {
    uint64_t admissions = 0;     // lines inserted into a node
    uint64_t evictions = 0;      // lines displaced by capacity pressure
    uint64_t invalidations = 0;  // inclusive back-invalidations of upper copies
    uint64_t demotions = 0;      // exclusive victims re-admitted a layer down
    uint64_t dirty_created = 0;  // clean→dirty transitions (write-back absorbs)
    uint64_t dirty_merged = 0;   // dirty tokens folded into an already-dirty line
    uint64_t dirty_lost = 0;     // dirty lines wiped by a node failure
    uint64_t writebacks = 0;     // dirty lines written back to their server
  };

  struct ReadProbe {
    bool hit = false;
    CacheNodeId node{};
  };

  // `allocation` supplies the upper-layer partition hashes and the per-layer
  // capacities; `placement` the rack binding; `spine_alive` (may be null = all
  // alive) is the engine's live top-layer alive vector, read on every probe.
  // All three must outlive the runtime.
  CachePolicyRuntime(const CachePolicyConfig& config,
                     const CacheAllocation* allocation,
                     const Placement* placement,
                     const std::vector<uint8_t>* spine_alive);

  // The candidate node of `key` at `layer` — the pure hash/placement geometry,
  // independent of the static allocation's runtime remap state (class comment).
  CacheNodeId CandidateOf(size_t layer, uint64_t key) const {
    if (layer + 1 == num_layers()) {
      return {static_cast<uint8_t>(layer), placement_->RackOf(key)};
    }
    return {static_cast<uint8_t>(layer), allocation_->PartitionOf(layer, key)};
  }
  bool NodeAlive(CacheNodeId node) const {
    return node.layer != 0 || spine_alive_ == nullptr ||
           spine_alive_->empty() || (*spine_alive_)[node.index] != 0;
  }

  // Where would this read hit right now? (Non-mutating.)
  ReadProbe Probe(uint64_t key) const;
  // Commits a delivered read that Probe() reported as a hit at `node`.
  void CommitHit(uint64_t key, CacheNodeId node,
                 std::vector<uint32_t>& writeback_servers);
  // Commits a delivered read miss (admission per the hierarchy mode).
  void CommitMiss(uint64_t key, std::vector<uint32_t>& writeback_servers);

  // Write-through: touches every alive resident copy and appends them to
  // `copies` (the engine charges coherence per copy).
  void WriteThrough(uint64_t key, std::vector<CacheNodeId>& copies,
                    std::vector<uint32_t>& writeback_servers);
  // Write-back: absorbs the write at the topmost alive resident copy, marking
  // it dirty. Returns the absorbing node, or nullopt (the write goes to the
  // primary server).
  std::optional<CacheNodeId> WriteBack(uint64_t key,
                                       std::vector<uint32_t>& writeback_servers);

  // Failure wipe: drops every line of `node`; dirty lines count as dirty_lost.
  void InvalidateNode(CacheNodeId node);

  const Counters& counters() const { return counters_; }
  // Dirty lines currently resident anywhere (conservation-check support).
  size_t ResidentDirtyLines() const;

  const NodeCache& node_cache(size_t layer, uint32_t index) const {
    return *caches_[layer][index];
  }
  const CachePolicyConfig& config() const { return config_; }
  size_t num_layers() const { return caches_.size(); }
  uint32_t layer_nodes(size_t layer) const {
    return static_cast<uint32_t>(caches_[layer].size());
  }

 private:
  // Topmost layer that can hold `key` right now (alive candidate, capacity>0);
  // num_layers() when none.
  size_t TopEligibleLayer(uint64_t key) const;
  // Inclusive: installs `key` at every layer above `holder` (which holds it),
  // walking up while the chain stays intact — this is both the miss-fill path
  // above the leaf and the lower-hit fill path (how a wiped spine warms up).
  void FillUpward(size_t holder, uint64_t key, std::vector<uint32_t>& wb);
  // Inclusive: a line fell out of `layer` — back-invalidate the upper copies
  // and move the dirty token(s) down to the copy below, or write back.
  void HandleInclusiveEviction(size_t layer, const EvictedLine& victim,
                               std::vector<uint32_t>& wb);
  // Exclusive: find the demoted line a home at `layer` or below.
  void CascadeDemote(size_t layer, EvictedLine line, std::vector<uint32_t>& wb);
  void AdmitExclusiveAt(size_t layer, uint64_t key, bool dirty,
                        std::vector<uint32_t>& wb);
  // Routes a lookup-eviction (SLRU protected-segment overflow) per hierarchy.
  void HandleLookupEviction(size_t layer, const EvictedLine& victim,
                            std::vector<uint32_t>& wb);
  NodeCache& CacheAt(CacheNodeId node) {
    return *caches_[node.layer][node.index];
  }

  CachePolicyConfig config_;
  const CacheAllocation* allocation_;
  const Placement* placement_;
  const std::vector<uint8_t>* spine_alive_;
  size_t leaf_layer_;
  std::vector<std::vector<std::unique_ptr<NodeCache>>> caches_;
  Counters counters_;
};

}  // namespace distcache

#endif  // DISTCACHE_CORE_CACHE_POLICY_H_
