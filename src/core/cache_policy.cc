#include "core/cache_policy.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "sketch/lru_map.h"

namespace distcache {

const char* CachePolicyName(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kDistCache: return "distcache";
    case CachePolicyKind::kStaticTopK: return "static-topk";
    case CachePolicyKind::kLru: return "lru";
    case CachePolicyKind::kLfu: return "lfu";
    case CachePolicyKind::kFifo: return "fifo";
    case CachePolicyKind::kSegmented: return "segmented";
  }
  return "unknown";
}

const char* HierarchyModeName(HierarchyMode mode) {
  return mode == HierarchyMode::kInclusive ? "inclusive" : "exclusive";
}

const char* WritePolicyName(WritePolicy policy) {
  return policy == WritePolicy::kWriteThrough ? "write-through" : "write-back";
}

bool ParseCachePolicy(const std::string& name, CachePolicyKind* out) {
  for (CachePolicyKind kind :
       {CachePolicyKind::kDistCache, CachePolicyKind::kStaticTopK,
        CachePolicyKind::kLru, CachePolicyKind::kLfu, CachePolicyKind::kFifo,
        CachePolicyKind::kSegmented}) {
    if (name == CachePolicyName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ParseHierarchyMode(const std::string& name, HierarchyMode* out) {
  for (HierarchyMode mode : {HierarchyMode::kInclusive, HierarchyMode::kExclusive}) {
    if (name == HierarchyModeName(mode)) {
      *out = mode;
      return true;
    }
  }
  return false;
}

bool ParseWritePolicy(const std::string& name, WritePolicy* out) {
  for (WritePolicy policy : {WritePolicy::kWriteThrough, WritePolicy::kWriteBack}) {
    if (name == WritePolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

std::string ValidateCachePolicy(CachePolicyKind policy, HierarchyMode hierarchy,
                                WritePolicy write, Mechanism mechanism,
                                RoutingPolicy routing) {
  if (policy != CachePolicyKind::kDistCache && mechanism != Mechanism::kDistCache) {
    return std::string("cache policy '") + CachePolicyName(policy) +
           "' replaces the DistCache allocation; it is defined for the "
           "distcache mechanism only";
  }
  if (!PolicyIsDynamic(policy) &&
      (hierarchy != HierarchyMode::kInclusive || write != WritePolicy::kWriteThrough)) {
    return std::string("hierarchy/write policies apply to the dynamic cache "
                       "policies; the static '") +
           CachePolicyName(policy) +
           "' allocation models multi-layer copies and write-through coherence "
           "natively (use inclusive + write-through)";
  }
  if (policy == CachePolicyKind::kStaticTopK &&
      routing != RoutingPolicy::kPowerOfTwo) {
    return "cache policy 'static-topk' already fixes first-choice routing "
           "(every read goes to the first alive candidate); leave routing at "
           "the default pot";
  }
  return "";
}

namespace {

// ---- LRU / FIFO ------------------------------------------------------------

class LruNodeCache : public NodeCache {
 public:
  explicit LruNodeCache(size_t capacity) : NodeCache(capacity), map_(capacity) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) override {
    (void)evicted;  // plain LRU promotion never displaces a line
    return map_.Get(key) != nullptr;
  }
  bool Contains(uint64_t key) const override { return map_.Contains(key); }

  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    auto victim = map_.Put(key, dirty ? uint8_t{1} : uint8_t{0});
    if (!victim) {
      return std::nullopt;
    }
    return EvictedLine{victim->first, victim->second != 0};
  }

  MarkResult MarkDirty(uint64_t key) override {
    uint8_t* bit = map_.PeekMutable(key);
    if (bit == nullptr) {
      return MarkResult::kAbsent;
    }
    const MarkResult r = *bit != 0 ? MarkResult::kWasDirty : MarkResult::kWasClean;
    *bit = 1;
    return r;
  }

  std::optional<EvictedLine> Erase(uint64_t key) override {
    const uint8_t* bit = map_.Peek(key);
    if (bit == nullptr) {
      return std::nullopt;
    }
    const EvictedLine line{key, *bit != 0};
    map_.Erase(key);
    return line;
  }

  void ForEach(const std::function<void(uint64_t, bool)>& fn) const override {
    map_.ForEach([&](uint64_t key, uint8_t dirty) { fn(key, dirty != 0); });
  }
  void Clear() override { map_.Clear(); }
  size_t size() const override { return map_.size(); }

 private:
  LruMap<uint64_t, uint8_t> map_;
};

// FIFO is LRU whose hits never promote: recency order is insertion order.
class FifoNodeCache final : public LruNodeCache {
 public:
  using LruNodeCache::LruNodeCache;

  bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) override {
    (void)evicted;
    return Contains(key);
  }
};

// ---- LFU -------------------------------------------------------------------

class LfuNodeCache : public NodeCache {
 public:
  LfuNodeCache(size_t capacity, uint64_t seed)
      : NodeCache(capacity), history_(LfuHistorySketchConfig(seed)) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) override {
    (void)evicted;
    auto it = lines_.find(key);
    if (it == lines_.end()) {
      return false;
    }
    if (it->second.count < std::numeric_limits<uint32_t>::max()) {
      ++it->second.count;
    }
    return true;
  }
  bool Contains(uint64_t key) const override { return lines_.contains(key); }

  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    // Every admission attempt records the key in the miss-history sketch; the
    // returned estimate seeds the resident counter, so a key that keeps coming
    // back competes with its accumulated frequency, not from zero. Because the
    // seeded count can still be the minimum, Admit can evict the key it just
    // inserted — that is the frequency admission filter rejecting it.
    const uint32_t estimate = history_.Update(key);
    lines_[key] = Line{std::max(estimate, 1u), dirty};
    if (lines_.size() <= capacity()) {
      return std::nullopt;
    }
    // Deterministic victim: smallest count, ties broken toward the larger key
    // (key ids are popularity ranks by default, so ties evict the colder-looking
    // id regardless of hash-map iteration order).
    uint64_t victim_key = 0;
    uint32_t victim_count = std::numeric_limits<uint32_t>::max();
    bool have = false;
    for (const auto& [k, line] : lines_) {
      if (!have || line.count < victim_count ||
          (line.count == victim_count && k > victim_key)) {
        have = true;
        victim_key = k;
        victim_count = line.count;
      }
    }
    const bool victim_dirty = lines_.at(victim_key).dirty;
    lines_.erase(victim_key);
    return EvictedLine{victim_key, victim_dirty};
  }

  MarkResult MarkDirty(uint64_t key) override {
    auto it = lines_.find(key);
    if (it == lines_.end()) {
      return MarkResult::kAbsent;
    }
    const MarkResult r =
        it->second.dirty ? MarkResult::kWasDirty : MarkResult::kWasClean;
    it->second.dirty = true;
    return r;
  }

  std::optional<EvictedLine> Erase(uint64_t key) override {
    auto it = lines_.find(key);
    if (it == lines_.end()) {
      return std::nullopt;
    }
    const EvictedLine line{key, it->second.dirty};
    lines_.erase(it);
    return line;
  }

  void ForEach(const std::function<void(uint64_t, bool)>& fn) const override {
    for (const auto& [key, line] : lines_) {
      fn(key, line.dirty);
    }
  }
  void Clear() override { lines_.clear(); }  // history survives the wipe
  size_t size() const override { return lines_.size(); }

 private:
  struct Line {
    uint32_t count = 0;
    bool dirty = false;
  };
  std::unordered_map<uint64_t, Line> lines_;
  CountMinSketch history_;
};

// ---- Segmented LRU ---------------------------------------------------------

class SegmentedNodeCache : public NodeCache {
 public:
  explicit SegmentedNodeCache(size_t capacity)
      : NodeCache(capacity),
        protected_(capacity / 2),
        probation_(capacity - capacity / 2) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) override {
    if (protected_.Get(key) != nullptr) {
      return true;
    }
    const uint8_t* bit = probation_.Peek(key);
    if (bit == nullptr) {
      return false;
    }
    if (protected_.capacity() == 0) {
      probation_.Get(key);  // degenerate shape (capacity 1): stay, just touch
      return true;
    }
    // Second hit promotes probation → protected; the displaced protected line
    // demotes to probation MRU, which can overflow probation and push its LRU
    // line out of the node (the lookup-eviction the interface documents).
    const uint8_t dirty = *bit;
    probation_.Erase(key);
    auto demoted = protected_.Put(key, dirty);
    if (demoted) {
      auto out = probation_.Put(demoted->first, demoted->second);
      if (out) {
        evicted = EvictedLine{out->first, out->second != 0};
      }
    }
    return true;
  }
  bool Contains(uint64_t key) const override {
    return protected_.Contains(key) || probation_.Contains(key);
  }

  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    // New lines start on probation (scan resistance: one-touch keys never
    // displace the protected working set).
    auto out = probation_.Put(key, dirty ? uint8_t{1} : uint8_t{0});
    if (!out) {
      return std::nullopt;
    }
    return EvictedLine{out->first, out->second != 0};
  }

  MarkResult MarkDirty(uint64_t key) override {
    uint8_t* bit = protected_.PeekMutable(key);
    if (bit == nullptr) {
      bit = probation_.PeekMutable(key);
    }
    if (bit == nullptr) {
      return MarkResult::kAbsent;
    }
    const MarkResult r = *bit != 0 ? MarkResult::kWasDirty : MarkResult::kWasClean;
    *bit = 1;
    return r;
  }

  std::optional<EvictedLine> Erase(uint64_t key) override {
    for (LruMap<uint64_t, uint8_t>* seg : {&protected_, &probation_}) {
      const uint8_t* bit = seg->Peek(key);
      if (bit != nullptr) {
        const EvictedLine line{key, *bit != 0};
        seg->Erase(key);
        return line;
      }
    }
    return std::nullopt;
  }

  void ForEach(const std::function<void(uint64_t, bool)>& fn) const override {
    for (const LruMap<uint64_t, uint8_t>* seg : {&protected_, &probation_}) {
      seg->ForEach([&](uint64_t key, uint8_t dirty) { fn(key, dirty != 0); });
    }
  }
  void Clear() override {
    protected_.Clear();
    probation_.Clear();
  }
  size_t size() const override { return protected_.size() + probation_.size(); }

 private:
  LruMap<uint64_t, uint8_t> protected_;
  LruMap<uint64_t, uint8_t> probation_;
};

}  // namespace

CountMinSketch::Config LfuHistorySketchConfig(uint64_t seed) {
  // Much smaller than the §5 data-plane sketch: one per cache node, tracking
  // only enough history to rank re-admission candidates. 8-bit saturation keeps
  // seeded counts bounded so one ancient burst cannot pin a line forever.
  CountMinSketch::Config config;
  config.rows = 2;
  config.width = 2048;
  config.counter_max = 255;
  config.seed = seed;
  return config;
}

std::unique_ptr<NodeCache> MakeNodeCache(CachePolicyKind kind, size_t capacity,
                                         uint64_t seed) {
  switch (kind) {
    case CachePolicyKind::kLru:
      return std::make_unique<LruNodeCache>(capacity);
    case CachePolicyKind::kLfu:
      return std::make_unique<LfuNodeCache>(capacity, seed);
    case CachePolicyKind::kFifo:
      return std::make_unique<FifoNodeCache>(capacity);
    case CachePolicyKind::kSegmented:
      return std::make_unique<SegmentedNodeCache>(capacity);
    case CachePolicyKind::kDistCache:
    case CachePolicyKind::kStaticTopK:
      break;
  }
  assert(false && "MakeNodeCache: static policies have no per-node cache");
  return nullptr;
}

// ---- CachePolicyRuntime ----------------------------------------------------

CachePolicyRuntime::CachePolicyRuntime(const CachePolicyConfig& config,
                                       const CacheAllocation* allocation,
                                       const Placement* placement,
                                       const std::vector<uint8_t>* spine_alive)
    : config_(config),
      allocation_(allocation),
      placement_(placement),
      spine_alive_(spine_alive),
      leaf_layer_(allocation->num_layers() - 1) {
  const std::vector<LayerSpec>& layers = allocation->config().layers;
  caches_.resize(layers.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    caches_[l].reserve(layers[l].nodes);
    for (uint32_t n = 0; n < layers[l].nodes; ++n) {
      // Per-node seed: deterministic, distinct across the grid.
      const uint64_t node_seed =
          HashCombine(config.seed, (static_cast<uint64_t>(l) << 32) | n);
      caches_[l].push_back(
          MakeNodeCache(config.policy, layers[l].cache_objects, node_seed));
    }
  }
}

CachePolicyRuntime::ReadProbe CachePolicyRuntime::Probe(uint64_t key) const {
  for (size_t l = 0; l < caches_.size(); ++l) {
    const CacheNodeId node = CandidateOf(l, key);
    if (!NodeAlive(node)) {
      continue;
    }
    if (caches_[l][node.index]->Contains(key)) {
      return {true, node};
    }
  }
  return {};
}

size_t CachePolicyRuntime::TopEligibleLayer(uint64_t key) const {
  for (size_t l = 0; l < caches_.size(); ++l) {
    const CacheNodeId node = CandidateOf(l, key);
    if (NodeAlive(node) && caches_[l][node.index]->capacity() > 0) {
      return l;
    }
  }
  return caches_.size();
}

void CachePolicyRuntime::HandleInclusiveEviction(size_t layer,
                                                 const EvictedLine& victim,
                                                 std::vector<uint32_t>& wb) {
  ++counters_.evictions;
  // Collect the victim's dirty token plus those of its (now invalid) upper
  // copies — inclusive: a line evicted from layer l cannot stay above l.
  uint32_t tokens = victim.dirty ? 1 : 0;
  for (size_t j = layer; j-- > 0;) {
    const CacheNodeId upper = CandidateOf(j, victim.key);
    auto line = caches_[j][upper.index]->Erase(victim.key);
    if (line) {
      ++counters_.invalidations;
      tokens += line->dirty ? 1 : 0;
    }
  }
  if (tokens == 0) {
    return;
  }
  // The dirty token moves to the copy below (the invariant guarantees one while
  // the chain is intact); duplicates merge. Fell out of the leaf → write back.
  if (layer < leaf_layer_) {
    const CacheNodeId lower = CandidateOf(layer + 1, victim.key);
    switch (caches_[layer + 1][lower.index]->MarkDirty(victim.key)) {
      case NodeCache::MarkResult::kWasClean:
        counters_.dirty_merged += tokens - 1;
        return;
      case NodeCache::MarkResult::kWasDirty:
        counters_.dirty_merged += tokens;
        return;
      case NodeCache::MarkResult::kAbsent:
        break;  // chain broken (e.g. frequency-filtered admission): write back
    }
  }
  ++counters_.writebacks;
  counters_.dirty_merged += tokens - 1;
  wb.push_back(placement_->ServerOf(victim.key));
}

void CachePolicyRuntime::CascadeDemote(size_t layer, EvictedLine line,
                                       std::vector<uint32_t>& wb) {
  for (size_t l = layer; l <= leaf_layer_; ++l) {
    const CacheNodeId node = CandidateOf(l, line.key);
    NodeCache& cache = *caches_[l][node.index];
    if (!NodeAlive(node) || cache.capacity() == 0) {
      continue;
    }
    if (cache.Contains(line.key)) {
      // Not reachable from a pure exclusive history; merge rather than
      // double-insert if state ever degrades (e.g. after a failure wipe).
      if (line.dirty && cache.MarkDirty(line.key) == NodeCache::MarkResult::kWasDirty) {
        ++counters_.dirty_merged;
      }
      return;
    }
    auto victim = cache.Admit(line.key, line.dirty);
    ++counters_.admissions;
    ++counters_.demotions;
    if (!victim) {
      return;
    }
    ++counters_.evictions;
    line = *victim;  // keep walking down with the next victim
  }
  // Fell off the bottom of the hierarchy.
  if (line.dirty) {
    ++counters_.writebacks;
    wb.push_back(placement_->ServerOf(line.key));
  }
}

void CachePolicyRuntime::AdmitExclusiveAt(size_t layer, uint64_t key, bool dirty,
                                          std::vector<uint32_t>& wb) {
  const CacheNodeId node = CandidateOf(layer, key);
  auto victim = caches_[layer][node.index]->Admit(key, dirty);
  ++counters_.admissions;
  if (victim) {
    ++counters_.evictions;
    CascadeDemote(layer + 1, *victim, wb);
  }
}

void CachePolicyRuntime::HandleLookupEviction(size_t layer,
                                              const EvictedLine& victim,
                                              std::vector<uint32_t>& wb) {
  if (config_.hierarchy == HierarchyMode::kInclusive) {
    HandleInclusiveEviction(layer, victim, wb);
  } else {
    ++counters_.evictions;
    CascadeDemote(layer + 1, victim, wb);
  }
}

void CachePolicyRuntime::FillUpward(size_t holder, uint64_t key,
                                    std::vector<uint32_t>& wb) {
  for (size_t l = holder; l-- > 0;) {
    const CacheNodeId node = CandidateOf(l, key);
    NodeCache& cache = *caches_[l][node.index];
    if (!NodeAlive(node) || cache.capacity() == 0) {
      break;  // the chain must stay contiguous: stop filling above a gap
    }
    if (!cache.Contains(key)) {
      auto victim = cache.Admit(key, false);
      ++counters_.admissions;
      if (victim) {
        HandleInclusiveEviction(l, *victim, wb);
      }
      if (!cache.Contains(key)) {
        break;  // frequency admission filter rejected the fill: chain ends here
      }
    }
  }
}

void CachePolicyRuntime::CommitHit(uint64_t key, CacheNodeId node,
                                   std::vector<uint32_t>& wb) {
  std::optional<EvictedLine> evicted;
  CacheAt(node).Lookup(key, evicted);  // replacement-state touch
  if (evicted) {
    HandleLookupEviction(node.layer, *evicted, wb);
  }
  if (config_.hierarchy == HierarchyMode::kInclusive) {
    // The classic inclusive fill: a hit below the top installs the line in the
    // upper layers too (also how a failure-wiped spine warms back up).
    FillUpward(node.layer, key, wb);
    return;
  }
  // Exclusive: promote a below-top hit to the top, demoting the displaced line.
  const size_t top = TopEligibleLayer(key);
  if (top < node.layer) {
    auto line = CacheAt(node).Erase(key);
    AdmitExclusiveAt(top, key, line && line->dirty, wb);
  }
}

void CachePolicyRuntime::CommitMiss(uint64_t key, std::vector<uint32_t>& wb) {
  if (config_.hierarchy == HierarchyMode::kExclusive) {
    const size_t top = TopEligibleLayer(key);
    if (top < caches_.size()) {
      AdmitExclusiveAt(top, key, false, wb);
    }
    return;
  }
  // Inclusive: the leaf admits first, then the line fills upward while the
  // chain holds (upper ⊆ lower at every intermediate state).
  const CacheNodeId leaf = CandidateOf(leaf_layer_, key);
  NodeCache& cache = *caches_[leaf_layer_][leaf.index];
  if (cache.capacity() == 0) {
    return;
  }
  auto victim = cache.Admit(key, false);
  ++counters_.admissions;
  if (victim) {
    HandleInclusiveEviction(leaf_layer_, *victim, wb);
  }
  if (cache.Contains(key)) {
    FillUpward(leaf_layer_, key, wb);
  }
}

void CachePolicyRuntime::WriteThrough(uint64_t key,
                                      std::vector<CacheNodeId>& copies,
                                      std::vector<uint32_t>& wb) {
  for (size_t l = 0; l < caches_.size(); ++l) {
    const CacheNodeId node = CandidateOf(l, key);
    if (!NodeAlive(node)) {
      continue;
    }
    NodeCache& cache = *caches_[l][node.index];
    if (!cache.Contains(key)) {
      continue;
    }
    std::optional<EvictedLine> evicted;
    cache.Lookup(key, evicted);  // the in-place update counts as a use
    copies.push_back(node);
    if (evicted) {
      HandleLookupEviction(l, *evicted, wb);
    }
  }
}

std::optional<CacheNodeId> CachePolicyRuntime::WriteBack(
    uint64_t key, std::vector<uint32_t>& wb) {
  for (size_t l = 0; l < caches_.size(); ++l) {
    const CacheNodeId node = CandidateOf(l, key);
    if (!NodeAlive(node)) {
      continue;
    }
    NodeCache& cache = *caches_[l][node.index];
    if (!cache.Contains(key)) {
      continue;
    }
    std::optional<EvictedLine> evicted;
    cache.Lookup(key, evicted);
    if (cache.MarkDirty(key) == NodeCache::MarkResult::kWasClean) {
      ++counters_.dirty_created;
    }
    if (evicted) {
      HandleLookupEviction(l, *evicted, wb);
    }
    return node;
  }
  return std::nullopt;
}

void CachePolicyRuntime::InvalidateNode(CacheNodeId node) {
  NodeCache& cache = CacheAt(node);
  cache.ForEach([&](uint64_t, bool dirty) {
    if (dirty) {
      ++counters_.dirty_lost;  // the failed switch takes its dirty lines with it
    }
  });
  cache.Clear();
}

size_t CachePolicyRuntime::ResidentDirtyLines() const {
  size_t dirty = 0;
  for (const auto& layer : caches_) {
    for (const auto& cache : layer) {
      cache->ForEach([&](uint64_t, bool d) { dirty += d ? 1 : 0; });
    }
  }
  return dirty;
}

}  // namespace distcache
