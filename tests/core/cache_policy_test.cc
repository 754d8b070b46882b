// Differential and property tests for the per-node cache-policy layer.
//
// Every dynamic NodeCache is checked op-for-op against a brute-force reference
// model on random traces (the LFU reference runs a bit-identical CountMinSketch
// via LfuHistorySketchConfig, so even the sketch-seeded admission filter must
// agree exactly). The CachePolicyRuntime is then driven with random read/write
// streams and checked against its structural invariants: per-node capacity is
// never exceeded, inclusive mode keeps upper copies a subset of the chain below,
// exclusive mode keeps at most one resident copy per key, and write-back dirty
// bits obey the conservation law
//   dirty_created == writebacks + dirty_merged + dirty_lost + resident dirty.
#include "core/cache_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "core/allocation.h"
#include "kv/placement.h"
#include "sketch/count_min.h"

namespace distcache {
namespace {

// ---- Brute-force reference models ------------------------------------------
//
// Each reference stores (key, dirty) lines in plain containers with the
// textbook update rule, no capacity tricks. They mirror only the operations the
// runtime uses: Lookup, Contains, Admit (callers never admit a resident key),
// MarkDirty, Erase, Clear.

struct RefLine {
  uint64_t key;
  bool dirty;
};

class RefCache {
 public:
  virtual ~RefCache() = default;
  virtual bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) = 0;
  virtual bool Contains(uint64_t key) const = 0;
  virtual std::optional<EvictedLine> Admit(uint64_t key, bool dirty) = 0;
  virtual void MarkDirty(uint64_t key) = 0;
  virtual void Erase(uint64_t key) = 0;
  virtual void Clear() = 0;
  virtual std::map<uint64_t, bool> Contents() const = 0;
};

// LRU: MRU at the front of a list; eviction from the back.
class RefLru : public RefCache {
 public:
  explicit RefLru(size_t capacity) : capacity_(capacity) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>&) override {
    auto it = Find(key);
    if (it == lines_.end()) {
      return false;
    }
    const RefLine line = *it;
    lines_.erase(it);
    lines_.push_front(line);
    return true;
  }
  bool Contains(uint64_t key) const override {
    return std::any_of(lines_.begin(), lines_.end(),
                       [&](const RefLine& l) { return l.key == key; });
  }
  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    lines_.push_front({key, dirty});
    if (lines_.size() <= capacity_) {
      return std::nullopt;
    }
    const RefLine victim = lines_.back();
    lines_.pop_back();
    return EvictedLine{victim.key, victim.dirty};
  }
  void MarkDirty(uint64_t key) override {
    auto it = Find(key);
    if (it != lines_.end()) {
      it->dirty = true;
    }
  }
  void Erase(uint64_t key) override {
    auto it = Find(key);
    if (it != lines_.end()) {
      lines_.erase(it);
    }
  }
  void Clear() override { lines_.clear(); }
  std::map<uint64_t, bool> Contents() const override {
    std::map<uint64_t, bool> out;
    for (const RefLine& l : lines_) {
      out[l.key] = l.dirty;
    }
    return out;
  }

 private:
  std::deque<RefLine>::iterator Find(uint64_t key) {
    return std::find_if(lines_.begin(), lines_.end(),
                        [&](const RefLine& l) { return l.key == key; });
  }
  size_t capacity_;
  std::deque<RefLine> lines_;  // front = MRU
};

// FIFO: insertion order only; lookups never touch the order.
class RefFifo : public RefCache {
 public:
  explicit RefFifo(size_t capacity) : capacity_(capacity) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>&) override {
    return Contains(key);
  }
  bool Contains(uint64_t key) const override {
    return std::any_of(lines_.begin(), lines_.end(),
                       [&](const RefLine& l) { return l.key == key; });
  }
  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    lines_.push_back({key, dirty});
    if (lines_.size() <= capacity_) {
      return std::nullopt;
    }
    const RefLine victim = lines_.front();
    lines_.pop_front();
    return EvictedLine{victim.key, victim.dirty};
  }
  void MarkDirty(uint64_t key) override {
    for (RefLine& l : lines_) {
      if (l.key == key) {
        l.dirty = true;
      }
    }
  }
  void Erase(uint64_t key) override {
    lines_.erase(std::remove_if(lines_.begin(), lines_.end(),
                                [&](const RefLine& l) { return l.key == key; }),
                 lines_.end());
  }
  void Clear() override { lines_.clear(); }
  std::map<uint64_t, bool> Contents() const override {
    std::map<uint64_t, bool> out;
    for (const RefLine& l : lines_) {
      out[l.key] = l.dirty;
    }
    return out;
  }

 private:
  size_t capacity_;
  std::deque<RefLine> lines_;  // front = oldest
};

// LFU with the production sketch semantics: a bit-identical CountMinSketch
// (same config, same seed) supplies the admission estimate; resident counters
// saturate at uint32 max; the victim is the smallest count with ties broken
// toward the larger key. Admit may evict the key it just inserted.
class RefLfu : public RefCache {
 public:
  RefLfu(size_t capacity, uint64_t seed)
      : capacity_(capacity), sketch_(LfuHistorySketchConfig(seed)) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>&) override {
    auto it = lines_.find(key);
    if (it == lines_.end()) {
      return false;
    }
    if (it->second.count < std::numeric_limits<uint32_t>::max()) {
      ++it->second.count;
    }
    return true;
  }
  bool Contains(uint64_t key) const override { return lines_.count(key) != 0; }
  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    const uint32_t estimate = sketch_.Update(key);
    lines_[key] = Counted{std::max(estimate, 1u), dirty};
    if (lines_.size() <= capacity_) {
      return std::nullopt;
    }
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
  void MarkDirty(uint64_t key) override {
    auto it = lines_.find(key);
    if (it != lines_.end()) {
      it->second.dirty = true;
    }
  }
  void Erase(uint64_t key) override { lines_.erase(key); }
  void Clear() override { lines_.clear(); }  // history survives, like production
  std::map<uint64_t, bool> Contents() const override {
    std::map<uint64_t, bool> out;
    for (const auto& [k, line] : lines_) {
      out[k] = line.dirty;
    }
    return out;
  }

 private:
  struct Counted {
    uint32_t count = 0;
    bool dirty = false;
  };
  size_t capacity_;
  std::map<uint64_t, Counted> lines_;
  CountMinSketch sketch_;
};

// Segmented LRU: probation (new lines) + protected (second hit promotes); a
// promotion's displaced protected line demotes to probation MRU and can push
// probation's LRU line out of the node (the lookup-eviction).
class RefSlru : public RefCache {
 public:
  explicit RefSlru(size_t capacity)
      : protected_cap_(capacity / 2), probation_cap_(capacity - capacity / 2) {}

  bool Lookup(uint64_t key, std::optional<EvictedLine>& evicted) override {
    auto pit = Find(protected_, key);
    if (pit != protected_.end()) {
      const RefLine line = *pit;
      protected_.erase(pit);
      protected_.push_front(line);
      return true;
    }
    auto bit = Find(probation_, key);
    if (bit == probation_.end()) {
      return false;
    }
    if (protected_cap_ == 0) {
      const RefLine line = *bit;
      probation_.erase(bit);
      probation_.push_front(line);  // degenerate shape: stay, just touch
      return true;
    }
    const RefLine line = *bit;
    probation_.erase(bit);
    protected_.push_front(line);
    if (protected_.size() > protected_cap_) {
      const RefLine demoted = protected_.back();
      protected_.pop_back();
      probation_.push_front(demoted);
      if (probation_.size() > probation_cap_) {
        const RefLine out = probation_.back();
        probation_.pop_back();
        evicted = EvictedLine{out.key, out.dirty};
      }
    }
    return true;
  }
  bool Contains(uint64_t key) const override {
    const auto in = [&](const std::deque<RefLine>& seg) {
      return std::any_of(seg.begin(), seg.end(),
                         [&](const RefLine& l) { return l.key == key; });
    };
    return in(protected_) || in(probation_);
  }
  std::optional<EvictedLine> Admit(uint64_t key, bool dirty) override {
    probation_.push_front({key, dirty});
    if (probation_.size() <= probation_cap_) {
      return std::nullopt;
    }
    const RefLine victim = probation_.back();
    probation_.pop_back();
    return EvictedLine{victim.key, victim.dirty};
  }
  void MarkDirty(uint64_t key) override {
    for (std::deque<RefLine>* seg : {&protected_, &probation_}) {
      auto it = Find(*seg, key);
      if (it != seg->end()) {
        it->dirty = true;
        return;
      }
    }
  }
  void Erase(uint64_t key) override {
    for (std::deque<RefLine>* seg : {&protected_, &probation_}) {
      auto it = Find(*seg, key);
      if (it != seg->end()) {
        seg->erase(it);
        return;
      }
    }
  }
  void Clear() override {
    protected_.clear();
    probation_.clear();
  }
  std::map<uint64_t, bool> Contents() const override {
    std::map<uint64_t, bool> out;
    for (const std::deque<RefLine>* seg : {&protected_, &probation_}) {
      for (const RefLine& l : *seg) {
        out[l.key] = l.dirty;
      }
    }
    return out;
  }

 private:
  static std::deque<RefLine>::iterator Find(std::deque<RefLine>& seg,
                                            uint64_t key) {
    return std::find_if(seg.begin(), seg.end(),
                        [&](const RefLine& l) { return l.key == key; });
  }
  size_t protected_cap_;
  size_t probation_cap_;
  std::deque<RefLine> protected_;  // front = MRU
  std::deque<RefLine> probation_;
};

std::unique_ptr<RefCache> MakeReference(CachePolicyKind kind, size_t capacity,
                                        uint64_t seed) {
  switch (kind) {
    case CachePolicyKind::kLru: return std::make_unique<RefLru>(capacity);
    case CachePolicyKind::kFifo: return std::make_unique<RefFifo>(capacity);
    case CachePolicyKind::kLfu: return std::make_unique<RefLfu>(capacity, seed);
    case CachePolicyKind::kSegmented: return std::make_unique<RefSlru>(capacity);
    default: return nullptr;
  }
}

std::map<uint64_t, bool> Contents(const NodeCache& cache) {
  std::map<uint64_t, bool> out;
  cache.ForEach([&](uint64_t key, bool dirty) { out[key] = dirty; });
  return out;
}

// Drives one NodeCache and its reference through the same random trace and
// requires identical observable behavior after every operation: hit/miss
// verdicts, eviction victims (key and dirty bit), and full contents.
void RunDifferential(CachePolicyKind kind, size_t capacity, uint64_t seed,
                     int ops) {
  const uint64_t sketch_seed = 0xfeedULL + seed;
  auto cache = MakeNodeCache(kind, capacity, sketch_seed);
  auto ref = MakeReference(kind, capacity, sketch_seed);
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(ref, nullptr);
  std::mt19937_64 rng(seed);
  const uint64_t key_space = 4 * capacity + 8;
  for (int op = 0; op < ops; ++op) {
    const uint64_t key = rng() % key_space;
    switch (rng() % 8) {
      case 0: {  // erase
        const bool resident = ref->Contains(key);
        auto erased = cache->Erase(key, LineTag(key));
        EXPECT_EQ(erased.has_value(), resident);
        ref->Erase(key);
        break;
      }
      case 1: {  // mark dirty
        const bool resident = ref->Contains(key);
        const auto r = cache->MarkDirty(key, LineTag(key));
        EXPECT_EQ(r == NodeCache::MarkResult::kAbsent, !resident);
        ref->MarkDirty(key);
        break;
      }
      case 2: {  // failure wipe, occasionally
        if (rng() % 16 == 0) {
          cache->Clear();
          ref->Clear();
        }
        break;
      }
      default: {  // lookup; admit on miss (the runtime's read path shape)
        std::optional<EvictedLine> evicted, ref_evicted;
        const bool hit = cache->Lookup(key, LineTag(key), evicted);
        const bool ref_hit = ref->Lookup(key, ref_evicted);
        ASSERT_EQ(hit, ref_hit) << "key " << key << " op " << op;
        EXPECT_EQ(evicted.has_value(), ref_evicted.has_value());
        if (evicted && ref_evicted) {
          EXPECT_EQ(evicted->key, ref_evicted->key);
          EXPECT_EQ(evicted->dirty, ref_evicted->dirty);
          EXPECT_EQ(evicted->tag, LineTag(evicted->key));  // stored, not rehashed
        }
        if (!hit) {
          const bool dirty = rng() % 4 == 0;
          auto victim = cache->Admit(key, LineTag(key), dirty);
          auto ref_victim = ref->Admit(key, dirty);
          ASSERT_EQ(victim.has_value(), ref_victim.has_value());
          if (victim && ref_victim) {
            EXPECT_EQ(victim->key, ref_victim->key);
            EXPECT_EQ(victim->dirty, ref_victim->dirty);
            EXPECT_EQ(victim->tag, LineTag(victim->key));
          }
        }
        break;
      }
    }
    ASSERT_EQ(Contents(*cache), ref->Contents()) << "op " << op;
    ASSERT_LE(cache->size(), capacity);
  }
}

TEST(NodeCacheDifferential, LruMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunDifferential(CachePolicyKind::kLru, 16, seed, 4000);
  }
}

TEST(NodeCacheDifferential, FifoMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunDifferential(CachePolicyKind::kFifo, 16, seed, 4000);
  }
}

TEST(NodeCacheDifferential, LfuMatchesBruteForceWithBitIdenticalSketch) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunDifferential(CachePolicyKind::kLfu, 16, seed, 4000);
  }
}

TEST(NodeCacheDifferential, SegmentedMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunDifferential(CachePolicyKind::kSegmented, 16, seed, 4000);
  }
}

TEST(NodeCacheDifferential, TinyCapacities) {
  // Degenerate shapes: capacity 1 (SLRU protected segment is empty) and 2.
  for (CachePolicyKind kind :
       {CachePolicyKind::kLru, CachePolicyKind::kFifo, CachePolicyKind::kLfu,
        CachePolicyKind::kSegmented}) {
    RunDifferential(kind, 1, 7, 1500);
    RunDifferential(kind, 2, 8, 1500);
  }
}

// ---- Parse / validate -------------------------------------------------------

TEST(CachePolicyConfigTest, ParseRoundTrips) {
  for (CachePolicyKind kind :
       {CachePolicyKind::kDistCache, CachePolicyKind::kStaticTopK,
        CachePolicyKind::kLru, CachePolicyKind::kLfu, CachePolicyKind::kFifo,
        CachePolicyKind::kSegmented}) {
    CachePolicyKind parsed;
    ASSERT_TRUE(ParseCachePolicy(CachePolicyName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  CachePolicyKind unused;
  EXPECT_FALSE(ParseCachePolicy("round-robin", &unused));
  HierarchyMode mode;
  ASSERT_TRUE(ParseHierarchyMode("exclusive", &mode));
  EXPECT_EQ(mode, HierarchyMode::kExclusive);
  EXPECT_FALSE(ParseHierarchyMode("victim", &mode));
  WritePolicy wp;
  ASSERT_TRUE(ParseWritePolicy("write-back", &wp));
  EXPECT_EQ(wp, WritePolicy::kWriteBack);
  EXPECT_FALSE(ParseWritePolicy("write-around", &wp));
}

TEST(CachePolicyConfigTest, ValidateRejectsInconsistentCombinations) {
  constexpr RoutingPolicy kPot = RoutingPolicy::kPowerOfTwo;
  // Dynamic policies require the distcache mechanism.
  EXPECT_FALSE(ValidateCachePolicy(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                                   WritePolicy::kWriteThrough,
                                   Mechanism::kNoCache, kPot)
                   .empty());
  // Hierarchy/write knobs require a dynamic policy.
  EXPECT_FALSE(ValidateCachePolicy(CachePolicyKind::kDistCache,
                                   HierarchyMode::kExclusive,
                                   WritePolicy::kWriteThrough,
                                   Mechanism::kDistCache, kPot)
                   .empty());
  EXPECT_FALSE(ValidateCachePolicy(CachePolicyKind::kStaticTopK,
                                   HierarchyMode::kInclusive,
                                   WritePolicy::kWriteBack, Mechanism::kDistCache,
                                   kPot)
                   .empty());
  // The supported combinations are clean.
  EXPECT_TRUE(ValidateCachePolicy(CachePolicyKind::kDistCache,
                                  HierarchyMode::kInclusive,
                                  WritePolicy::kWriteThrough, Mechanism::kNoCache,
                                  kPot)
                  .empty());
  EXPECT_TRUE(ValidateCachePolicy(CachePolicyKind::kLfu, HierarchyMode::kExclusive,
                                  WritePolicy::kWriteBack, Mechanism::kDistCache,
                                  kPot)
                  .empty());
}

// static-topk is distcache with first-choice routing: asking for another
// routing on top of it contradicts the policy, so it is refused rather than
// silently ignored. The routing ablations stay legal under distcache.
TEST(CachePolicyConfigTest, ValidateRejectsStaticTopKWithExplicitRouting) {
  for (const RoutingPolicy routing :
       {RoutingPolicy::kRandom, RoutingPolicy::kFirstChoice}) {
    const std::string error = ValidateCachePolicy(
        CachePolicyKind::kStaticTopK, HierarchyMode::kInclusive,
        WritePolicy::kWriteThrough, Mechanism::kDistCache, routing);
    EXPECT_NE(error.find("first-choice"), std::string::npos) << error;
    EXPECT_TRUE(ValidateCachePolicy(CachePolicyKind::kDistCache,
                                    HierarchyMode::kInclusive,
                                    WritePolicy::kWriteThrough,
                                    Mechanism::kDistCache, routing)
                    .empty());
  }
  EXPECT_TRUE(ValidateCachePolicy(CachePolicyKind::kStaticTopK,
                                  HierarchyMode::kInclusive,
                                  WritePolicy::kWriteThrough,
                                  Mechanism::kDistCache, RoutingPolicy::kPowerOfTwo)
                  .empty());
}

// ---- Runtime property tests -------------------------------------------------

class PolicyRuntimeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kSpines = 4;
  static constexpr uint32_t kRacks = 4;
  static constexpr uint32_t kPerNode = 8;
  static constexpr uint64_t kKeySpace = 4096;

  PolicyRuntimeTest() : placement_(kRacks, 4) {
    const AllocationConfig cfg = AllocationConfig::TwoLayer(
        Mechanism::kDistCache, kSpines, kRacks, kPerNode);
    allocation_ = std::make_unique<CacheAllocation>(cfg, placement_);
    spine_alive_.assign(kSpines, 1);
  }

  std::unique_ptr<CachePolicyRuntime> MakeRuntime(CachePolicyKind kind,
                                                  HierarchyMode hierarchy,
                                                  WritePolicy write) {
    CachePolicyConfig cfg;
    cfg.policy = kind;
    cfg.hierarchy = hierarchy;
    cfg.write = write;
    return std::make_unique<CachePolicyRuntime>(cfg, allocation_.get(),
                                                &placement_, &spine_alive_);
  }

  // One random delivered request against the runtime, mirroring the engine's
  // probe → commit protocol. Returns the writeback fan-out (unused by most
  // assertions but kept to exercise the full signature).
  void Step(CachePolicyRuntime& rt, std::mt19937_64& rng, double write_ratio) {
    const CachePolicyRuntime::KeyGeometry key = rt.Locate(rng() % kKeySpace);
    std::vector<uint32_t> wb;
    if (static_cast<double>(rng() % 1000) < write_ratio * 1000.0) {
      if (rt.config().write == WritePolicy::kWriteBack) {
        rt.WriteBack(key, wb);
      } else {
        std::vector<CacheNodeId> copies;
        rt.WriteThrough(key, copies, wb);
      }
      return;
    }
    const CachePolicyRuntime::ReadProbe probe = rt.Probe(key);
    if (probe.hit) {
      rt.CommitHit(key, probe.node, wb);
    } else {
      rt.CommitMiss(key, wb);
    }
  }

  void CheckCapacity(const CachePolicyRuntime& rt) {
    for (size_t l = 0; l < rt.num_layers(); ++l) {
      for (uint32_t n = 0; n < rt.layer_nodes(l); ++n) {
        ASSERT_LE(rt.node_cache(l, n).size(), rt.node_cache(l, n).capacity());
      }
    }
  }

  // Inclusive invariant: a copy at layer l < leaf implies copies at every layer
  // below, down to the leaf (each at the key's candidate node for that layer).
  void CheckInclusive(const CachePolicyRuntime& rt) {
    const size_t leaf = rt.num_layers() - 1;
    for (size_t l = 0; l < leaf; ++l) {
      for (uint32_t n = 0; n < rt.layer_nodes(l); ++n) {
        rt.node_cache(l, n).ForEach([&](uint64_t key, bool) {
          for (size_t below = l + 1; below <= leaf; ++below) {
            const CacheNodeId at = rt.CandidateOf(below, key);
            ASSERT_TRUE(rt.node_cache(below, at.index).Contains(key, LineTag(key)))
                << "inclusive violation: key " << key << " at layer " << l
                << " missing below at layer " << below;
          }
        });
      }
    }
  }

  // Exclusive invariant: at most one resident copy per key across the chain.
  void CheckExclusive(const CachePolicyRuntime& rt) {
    std::set<uint64_t> seen;
    for (size_t l = 0; l < rt.num_layers(); ++l) {
      for (uint32_t n = 0; n < rt.layer_nodes(l); ++n) {
        rt.node_cache(l, n).ForEach([&](uint64_t key, bool) {
          ASSERT_TRUE(seen.insert(key).second)
              << "exclusive violation: key " << key << " resident twice";
        });
      }
    }
  }

  void CheckDirtyConservation(const CachePolicyRuntime& rt) {
    const auto& c = rt.counters();
    ASSERT_EQ(c.dirty_created,
              c.writebacks + c.dirty_merged + c.dirty_lost +
                  rt.ResidentDirtyLines());
  }

  Placement placement_;
  std::unique_ptr<CacheAllocation> allocation_;
  std::vector<uint8_t> spine_alive_;
};

TEST_F(PolicyRuntimeTest, InclusiveInvariantsHoldUnderRandomTraffic) {
  for (CachePolicyKind kind :
       {CachePolicyKind::kLru, CachePolicyKind::kLfu, CachePolicyKind::kFifo,
        CachePolicyKind::kSegmented}) {
    for (WritePolicy write :
         {WritePolicy::kWriteThrough, WritePolicy::kWriteBack}) {
      auto rt = MakeRuntime(kind, HierarchyMode::kInclusive, write);
      std::mt19937_64 rng(0xabc123 + static_cast<uint64_t>(kind));
      for (int i = 0; i < 3000; ++i) {
        Step(*rt, rng, 0.3);
        if (i % 101 == 0) {
          CheckCapacity(*rt);
          CheckInclusive(*rt);
          CheckDirtyConservation(*rt);
        }
      }
      CheckCapacity(*rt);
      CheckInclusive(*rt);
      CheckDirtyConservation(*rt);
      EXPECT_GT(rt->counters().admissions, 0u);
    }
  }
}

TEST_F(PolicyRuntimeTest, ExclusiveInvariantsHoldUnderRandomTraffic) {
  for (CachePolicyKind kind :
       {CachePolicyKind::kLru, CachePolicyKind::kLfu, CachePolicyKind::kFifo,
        CachePolicyKind::kSegmented}) {
    for (WritePolicy write :
         {WritePolicy::kWriteThrough, WritePolicy::kWriteBack}) {
      auto rt = MakeRuntime(kind, HierarchyMode::kExclusive, write);
      std::mt19937_64 rng(0xdef456 + static_cast<uint64_t>(kind));
      for (int i = 0; i < 3000; ++i) {
        Step(*rt, rng, 0.3);
        if (i % 101 == 0) {
          CheckCapacity(*rt);
          CheckExclusive(*rt);
          CheckDirtyConservation(*rt);
        }
      }
      CheckCapacity(*rt);
      CheckExclusive(*rt);
      CheckDirtyConservation(*rt);
      EXPECT_GT(rt->counters().demotions, 0u);
    }
  }
}

TEST_F(PolicyRuntimeTest, DirtyConservationSurvivesNodeFailures) {
  // Write-back + periodic spine wipes: lost dirty lines must move to the
  // dirty_lost ledger, keeping the conservation law exact.
  auto rt = MakeRuntime(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                        WritePolicy::kWriteBack);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 4000; ++i) {
    Step(*rt, rng, 0.5);
    if (i % 500 == 499) {
      rt->InvalidateNode({0, static_cast<uint32_t>(rng() % kSpines)});
      CheckDirtyConservation(*rt);
    }
  }
  CheckDirtyConservation(*rt);
  EXPECT_GT(rt->counters().dirty_created, 0u);
  EXPECT_GT(rt->counters().dirty_lost, 0u);
  EXPECT_GT(rt->counters().writebacks, 0u);
}

TEST_F(PolicyRuntimeTest, ProbeIsPure) {
  // A thousand probes on a warmed-up runtime must not change any cache.
  auto rt = MakeRuntime(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                        WritePolicy::kWriteThrough);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    Step(*rt, rng, 0.0);
  }
  std::vector<std::map<uint64_t, bool>> before;
  for (size_t l = 0; l < rt->num_layers(); ++l) {
    for (uint32_t n = 0; n < rt->layer_nodes(l); ++n) {
      before.push_back(Contents(rt->node_cache(l, n)));
    }
  }
  const auto counters_before = rt->counters();
  for (uint64_t key = 0; key < 1000; ++key) {
    rt->Probe(rt->Locate(key));
  }
  size_t idx = 0;
  for (size_t l = 0; l < rt->num_layers(); ++l) {
    for (uint32_t n = 0; n < rt->layer_nodes(l); ++n) {
      EXPECT_EQ(before[idx++], Contents(rt->node_cache(l, n)));
    }
  }
  EXPECT_EQ(counters_before.admissions, rt->counters().admissions);
  EXPECT_EQ(counters_before.evictions, rt->counters().evictions);
}

TEST_F(PolicyRuntimeTest, DeadSpineIsSkippedAndWipedCopiesRewarm) {
  auto rt = MakeRuntime(CachePolicyKind::kLru, HierarchyMode::kInclusive,
                        WritePolicy::kWriteThrough);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    Step(*rt, rng, 0.0);
  }
  // Fail spine 0 the way the engine does: mark dead, wipe its cache.
  spine_alive_[0] = 0;
  rt->InvalidateNode({0, 0});
  EXPECT_EQ(rt->node_cache(0, 0).size(), 0u);
  // Probes for keys whose spine candidate is node 0 must skip to the leaf.
  for (uint64_t key = 0; key < 500; ++key) {
    const auto probe = rt->Probe(rt->Locate(key));
    if (probe.hit) {
      EXPECT_TRUE(probe.node.layer != 0 || probe.node.index != 0);
    }
  }
  // Recovery: alive again, cold; lower-layer hits refill it via FillUpward.
  spine_alive_[0] = 1;
  for (int i = 0; i < 2000; ++i) {
    Step(*rt, rng, 0.0);
  }
  EXPECT_GT(rt->node_cache(0, 0).size(), 0u);
  CheckInclusive(*rt);
}

}  // namespace
}  // namespace distcache
