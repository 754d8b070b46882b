// Value pin of the dynamic-policy runtime: every dynamic policy × hierarchy ×
// write mode, on a two- and a three-layer hierarchy, driven through the
// engine's protocol (Probe → Commit for reads, WriteThrough / WriteBack for
// writes) over one fixed 200k-key stream with a spine failure window. Each run
// is reduced to its per-layer hits, every Counters field and a digest of the
// write-back server sequence; the expected table was recorded before the
// request-key geometry refactor, so any change to which line a policy keeps,
// evicts or writes back shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/hash.h"
#include "core/allocation.h"
#include "core/cache_policy.h"
#include "kv/placement.h"

namespace distcache {
namespace {

constexpr uint32_t kRacks = 4;
constexpr uint32_t kServersPerRack = 4;
constexpr int kRequests = 200000;

struct GoldenRow {
  CachePolicyKind policy;
  HierarchyMode hierarchy;
  WritePolicy write;
  size_t layers;
  uint64_t hits[3];  // per layer, top first (unused layers 0)
  CachePolicyRuntime::Counters counters;
  uint64_t writeback_digest;  // HashCombine fold of the write-back server ids
  uint64_t write_digest;      // fold of absorbing nodes / write-through copies
};

struct RunResult {
  uint64_t hits[3] = {0, 0, 0};
  CachePolicyRuntime::Counters counters;
  uint64_t writeback_digest = 0;
  uint64_t write_digest = 0;
};

uint64_t FoldNode(uint64_t digest, CacheNodeId node) {
  return HashCombine(digest, (uint64_t{node.layer} << 32) | node.index);
}

RunResult RunStream(CachePolicyKind policy, HierarchyMode hierarchy, WritePolicy write,
                    size_t layers) {
  const Placement placement(kRacks, kServersPerRack);
  AllocationConfig acfg;
  acfg.layers = layers == 2 ? std::vector<LayerSpec>{{4, 8}, {kRacks, 8}}
                            : std::vector<LayerSpec>{{4, 6}, {3, 10}, {kRacks, 8}};
  const CacheAllocation allocation(acfg, placement);
  std::vector<uint8_t> spine_alive(4, 1);
  CachePolicyConfig pcfg;
  pcfg.policy = policy;
  pcfg.hierarchy = hierarchy;
  pcfg.write = write;
  CachePolicyRuntime rt(pcfg, &allocation, &placement, &spine_alive);

  RunResult out;
  std::mt19937_64 rng(0x901de7);
  std::vector<uint32_t> wb;
  std::vector<CacheNodeId> copies;
  for (int i = 0; i < kRequests; ++i) {
    if (i == kRequests / 2) {  // spine 1 fails: skipped and wiped
      spine_alive[1] = 0;
      rt.InvalidateNode({0, 1});
    } else if (i == 3 * kRequests / 4) {  // ... and comes back cold
      spine_alive[1] = 1;
    }
    // A skewed stream: 70% from a 96-key hot set, the rest from 16k keys.
    const uint64_t key = rng() % 10 < 7 ? rng() % 96 : rng() % 16384;
    const bool is_write = rng() % 5 == 0;
    wb.clear();
    if (is_write) {
      if (write == WritePolicy::kWriteBack) {
        const auto absorbed = rt.WriteBack(rt.Locate(key), wb);
        out.write_digest = absorbed ? FoldNode(out.write_digest, *absorbed)
                                    : HashCombine(out.write_digest, ~uint64_t{0});
      } else {
        copies.clear();
        rt.WriteThrough(rt.Locate(key), copies, wb);
        for (const CacheNodeId c : copies) {
          out.write_digest = FoldNode(out.write_digest, c);
        }
        out.write_digest = HashCombine(out.write_digest, copies.size());
      }
    } else {
      const CachePolicyRuntime::KeyGeometry geo = rt.Locate(key);
      const CachePolicyRuntime::ReadProbe probe = rt.Probe(geo);
      if (probe.hit) {
        ++out.hits[probe.node.layer];
        rt.CommitHit(geo, probe.node, wb);
      } else {
        rt.CommitMiss(geo, wb);
      }
    }
    for (const uint32_t server : wb) {
      out.writeback_digest = HashCombine(out.writeback_digest, server);
    }
  }
  out.counters = rt.counters();
  return out;
}

using P = CachePolicyKind;
using H = HierarchyMode;
using W = WritePolicy;

// {policy, hierarchy, write, layers, hits, counters, write-back digest,
//  write digest}, recorded before the request-key geometry refactor.
const GoldenRow kGolden[] = {
    {P::kLru, H::kInclusive, W::kWriteThrough, 2, {20510, 4541, 0},
     {267065, 189704, 77292, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x9355ed220f9591bcULL},
    {P::kLru, H::kInclusive, W::kWriteThrough, 3, {15999, 5338, 3662},
     {410441, 273336, 137018, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x2bea767d70b4ee02ULL},
    {P::kLru, H::kInclusive, W::kWriteBack, 2, {20338, 4546, 0},
     {267404, 189336, 78000, 0, 5931, 15, 2, 5914},
     0x700499673f1bfc6aULL, 0x4fd21cebdce49967ULL},
    {P::kLru, H::kInclusive, W::kWriteBack, 3, {15915, 5293, 3687},
     {410758, 272933, 137738, 0, 5942, 24, 2, 5916},
     0xc1b9619b3b4134e9ULL, 0xc890e66d6de55d26ULL},
    {P::kLru, H::kExclusive, W::kWriteThrough, 2, {24186, 22889, 0},
     {263025, 241254, 0, 128250, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x21d2aadfca50feaeULL},
    {P::kLru, H::kExclusive, W::kWriteThrough, 3, {18225, 22307, 20880},
     {394595, 352429, 0, 253780, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x62cb3aabf7ca8209ULL},
    {P::kLru, H::kExclusive, W::kWriteBack, 2, {24186, 22889, 0},
     {263025, 241254, 0, 128250, 10154, 0, 2, 10146},
     0xfd77c28536d60042ULL, 0xb408a2adac0c6fd2ULL},
    {P::kLru, H::kExclusive, W::kWriteBack, 3, {18225, 22307, 20880},
     {394595, 352429, 0, 253780, 12303, 0, 1, 12294},
     0xc15cbf958963101cULL, 0xea26903ecc51f2a0ULL},
    {P::kLfu, H::kInclusive, W::kWriteThrough, 2, {29477, 7774, 0},
     {135555, 130268, 5226, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x75199677731c2ba5ULL},
    {P::kLfu, H::kInclusive, W::kWriteThrough, 3, {23135, 10345, 4001},
     {148459, 137847, 10525, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x847931a7c6237c68ULL},
    {P::kLfu, H::kInclusive, W::kWriteBack, 2, {27711, 9604, 0},
     {140107, 131375, 8670, 0, 2092, 277, 5, 1766},
     0xe9f7b4ae73834ca4ULL, 0x8d69aa19eff78020ULL},
    {P::kLfu, H::kInclusive, W::kWriteBack, 3, {21273, 6193, 9609},
     {158359, 140285, 17996, 0, 2354, 555, 2, 1745},
     0x2181f11e35257067ULL, 0xfa8b953beb8a688bULL},
    {P::kLfu, H::kExclusive, W::kWriteThrough, 2, {35042, 37367, 0},
     {241745, 205063, 0, 117394, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x75b115bf41991bb2ULL},
    {P::kLfu, H::kExclusive, W::kWriteThrough, 3, {26143, 35130, 37114},
     {358028, 286791, 0, 225120, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xaf633395b6533088ULL},
    {P::kLfu, H::kExclusive, W::kWriteBack, 2, {35042, 37367, 0},
     {241745, 205063, 0, 117394, 310, 0, 8, 238},
     0x2d48d1f5f610d638ULL, 0x36dfa2d9916ea9d9ULL},
    {P::kLfu, H::kExclusive, W::kWriteBack, 3, {26143, 35130, 37114},
     {358028, 286791, 0, 225120, 364, 0, 6, 272},
     0xde896df305518a95ULL, 0xfa51efe1db058959ULL},
    {P::kFifo, H::kInclusive, W::kWriteThrough, 2, {20084, 4495, 0},
     {267963, 190533, 77362, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xb549940cf0aa8badULL},
    {P::kFifo, H::kInclusive, W::kWriteThrough, 3, {15611, 5334, 3634},
     {411641, 273669, 137885, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xc44f34c59b1ece9cULL},
    {P::kFifo, H::kInclusive, W::kWriteBack, 2, {20084, 4495, 0},
     {267963, 190533, 77362, 0, 5932, 5, 2, 5925},
     0xd33804834a2998f7ULL, 0x6cd743d6d6b94eefULL},
    {P::kFifo, H::kInclusive, W::kWriteBack, 3, {15611, 5334, 3634},
     {411641, 273669, 137885, 0, 5936, 9, 2, 5925},
     0xd33804834a2998f7ULL, 0xe153bce6b85ecc34ULL},
    {P::kFifo, H::kExclusive, W::kWriteThrough, 2, {23178, 22670, 0},
     {265171, 243489, 0, 129258, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x9fdf565ca39b3744ULL},
    {P::kFifo, H::kExclusive, W::kWriteThrough, 3, {17692, 22156, 20689},
     {396453, 354518, 0, 254996, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xeb89916d06243892ULL},
    {P::kFifo, H::kExclusive, W::kWriteBack, 2, {23178, 22670, 0},
     {265171, 243489, 0, 129258, 10311, 0, 2, 10303},
     0x87e42061b51a9deeULL, 0x126730aae8c60351ULL},
    {P::kFifo, H::kExclusive, W::kWriteBack, 3, {17692, 22156, 20689},
     {396453, 354518, 0, 254996, 12642, 0, 1, 12635},
     0x445df448c2855a61ULL, 0x6b87ed4593d62977ULL},
    {P::kSegmented, H::kInclusive, W::kWriteThrough, 2, {18618, 12320, 0},
     {263070, 191234, 71779, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0x3d6f1cb504ad1f94ULL},
    {P::kSegmented, H::kInclusive, W::kWriteThrough, 3, {12236, 6386, 12355},
     {410941, 275330, 135542, 0, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xa264a7200003f7efULL},
    {P::kSegmented, H::kInclusive, W::kWriteBack, 2, {15931, 14796, 0},
     {265968, 194720, 71195, 0, 5079, 585, 2, 4480},
     0x69c1f17b273755f0ULL, 0x8163f2340ef14fbcULL},
    {P::kSegmented, H::kInclusive, W::kWriteBack, 3, {8613, 5148, 17160},
     {419481, 286619, 132803, 0, 5070, 528, 1, 4532},
     0x4f78e7abca62fe8dULL, 0xb88e604923c48676ULL},
    {P::kSegmented, H::kExclusive, W::kWriteThrough, 2, {28893, 16292, 0},
     {251941, 238449, 0, 123543, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xfe0eb20dacaf6682ULL},
    {P::kSegmented, H::kExclusive, W::kWriteThrough, 3, {21853, 16232, 13416},
     {387909, 361192, 0, 252610, 0, 0, 0, 0},
     0x0000000000000000ULL, 0xfa81ee76e0f77fe8ULL},
    {P::kSegmented, H::kExclusive, W::kWriteBack, 2, {28893, 16292, 0},
     {251941, 238449, 0, 123543, 7470, 0, 3, 7454},
     0xb7f55170153c177cULL, 0xef13f9db2875351fULL},
    {P::kSegmented, H::kExclusive, W::kWriteBack, 3, {21853, 16232, 13416},
     {387909, 361192, 0, 252610, 8342, 0, 3, 8325},
     0x2eb681374bab8875ULL, 0xea04a26d32222bc2ULL},
};

TEST(PolicyRuntimeGolden, EveryDynamicConfigMatchesTheRecordedRun) {
  size_t covered = 0;
  for (const GoldenRow& g : kGolden) {
    SCOPED_TRACE(testing::Message()
                 << CachePolicyName(g.policy) << " " << HierarchyModeName(g.hierarchy)
                 << " " << WritePolicyName(g.write) << " L=" << g.layers);
    const RunResult r = RunStream(g.policy, g.hierarchy, g.write, g.layers);
    for (size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(r.hits[l], g.hits[l]) << "layer " << l;
    }
    const auto& c = r.counters;
    const auto& e = g.counters;
    EXPECT_EQ(c.admissions, e.admissions);
    EXPECT_EQ(c.evictions, e.evictions);
    EXPECT_EQ(c.invalidations, e.invalidations);
    EXPECT_EQ(c.demotions, e.demotions);
    EXPECT_EQ(c.dirty_created, e.dirty_created);
    EXPECT_EQ(c.dirty_merged, e.dirty_merged);
    EXPECT_EQ(c.dirty_lost, e.dirty_lost);
    EXPECT_EQ(c.writebacks, e.writebacks);
    EXPECT_EQ(r.writeback_digest, g.writeback_digest);
    EXPECT_EQ(r.write_digest, g.write_digest);
    ++covered;
  }
  EXPECT_EQ(covered, 4u * 2u * 2u * 2u);  // policies × hierarchies × writes × depths
}

// Locate() is the per-request shortcut for CandidateOf + Placement: the same
// tag, server and candidate node at every layer, for any key.
TEST(PolicyRuntimeGolden, LocateAgreesWithCandidateOf) {
  const Placement placement(kRacks, kServersPerRack);
  AllocationConfig acfg;
  acfg.layers = {{4, 6}, {3, 10}, {kRacks, 8}};
  const CacheAllocation allocation(acfg, placement);
  const CachePolicyRuntime rt(CachePolicyConfig{}, &allocation, &placement, nullptr);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = i % 2 == 0 ? static_cast<uint64_t>(i) : rng();
    const CachePolicyRuntime::KeyGeometry g = rt.Locate(key);
    ASSERT_EQ(g.key, key);
    ASSERT_EQ(g.tag, LineTag(key));
    ASSERT_EQ(g.server, placement.ServerOf(key));
    for (size_t l = 0; l < rt.num_layers(); ++l) {
      ASSERT_EQ(g.candidate[l], rt.CandidateOf(l, key)) << "layer " << l;
    }
  }
}

}  // namespace
}  // namespace distcache
