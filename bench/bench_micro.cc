// Microbenchmarks of the substrate operations (google-benchmark): hashing, workload
// generation, sketch updates, switch lookup path, KV store ops, PoT routing decision,
// a full fluid-simulator tick, and the sharded-engine scaling substrate — transport
// (in-process SPSC ring vs shared-memory arena ring) and cache-line padding
// (padded vs unpadded per-thread load lanes) — so the two scaling-PR claims are
// individually measurable.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "cache/cache_switch.h"
#include "cluster/cluster_sim.h"
#include "common/alias_sampler.h"
#include "common/cacheline.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/workload.h"
#include "common/zipf.h"
#include "core/pot_router.h"
#include "kv/kv_store.h"
#include "runtime/shm_arena.h"
#include "runtime/shm_ring.h"
#include "runtime/spsc_ring.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/lru_map.h"

namespace distcache {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 1;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_TabulationHash(benchmark::State& state) {
  TabulationHash h(1);
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(++k));
  }
}
BENCHMARK(BM_TabulationHash);

// All r functions of an interleaved HashFamily on one key: one HashAll pass
// (8 table lookups) against r Hash(i, key) calls (8 lookups each). Random
// keys put every table line in play, as a sketch's uncached keys do.
void BM_HashFamilyAllRows(benchmark::State& state) {
  const HashFamily family(static_cast<size_t>(state.range(0)), 1);
  Rng rng(3);
  uint64_t out[8];
  for (auto _ : state) {
    family.HashAll(rng.Next(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashFamilyAllRows)->Arg(2)->Arg(3)->Arg(4);

void BM_HashFamilyPerRow(benchmark::State& state) {
  const HashFamily family(static_cast<size_t>(state.range(0)), 1);
  Rng rng(3);
  for (auto _ : state) {
    const uint64_t key = rng.Next();
    for (size_t i = 0; i < family.size(); ++i) {
      benchmark::DoNotOptimize(family.Hash(i, key));
    }
  }
}
BENCHMARK(BM_HashFamilyPerRow)->Arg(2)->Arg(3)->Arg(4);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution dist(100'000'000, 0.99);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// The sequential engine's key-draw pmf: the 51,200-rank candidate pool of a
// 100M-key Zipf-0.99 workload plus one aggregated tail bucket.
std::vector<double> HeadTailPmf() {
  const ZipfDistribution zipf(100'000'000, 0.99);
  PopularityVector pv = BuildPopularityVector(zipf, 51'200);
  pv.head.push_back(pv.tail_mass);
  return pv.head;
}

// Guide-table inverse CDF (the sequential engine's draw).
void BM_DiscreteSampleHeadTail(benchmark::State& state) {
  const DiscreteDistribution dist(HeadTailPmf(), "head+tail");
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
}
BENCHMARK(BM_DiscreteSampleHeadTail);

// Alias table over the same pmf (the shard runtime's draw).
void BM_AliasSampleHeadTail(benchmark::State& state) {
  const AliasSampler sampler(HeadTailPmf());
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSampleHeadTail);

void BM_CountMinUpdate(benchmark::State& state) {
  CountMinSketch cm(CountMinSketch::Config{});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.Update(rng.NextBounded(1 << 20)));
  }
}
BENCHMARK(BM_CountMinUpdate);

void BM_BloomInsertAndTest(benchmark::State& state) {
  BloomFilter bf(BloomFilter::Config{});
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.InsertAndTest(rng.NextBounded(1 << 20)));
  }
}
BENCHMARK(BM_BloomInsertAndTest);

void BM_LruPut(benchmark::State& state) {
  LruMap<uint64_t, uint64_t> lru(1024);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.Put(rng.NextBounded(1 << 16), 1));
  }
}
BENCHMARK(BM_LruPut);

void BM_KvStorePut(benchmark::State& state) {
  KvStore kv(1 << 16);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.Put(rng.NextBounded(1 << 14), "value"));
  }
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  KvStore kv(1 << 16);
  for (uint64_t k = 0; k < (1 << 14); ++k) {
    kv.Put(k, "value").ok();
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.Get(rng.NextBounded(1 << 14)));
  }
}
BENCHMARK(BM_KvStoreGet);

void BM_CacheSwitchLookupHit(benchmark::State& state) {
  CacheSwitch::Config cfg;
  cfg.hh.sketch.width = 1024;
  cfg.hh.bloom.bits = 4096;
  CacheSwitch sw(cfg);
  for (uint64_t k = 0; k < 100; ++k) {
    sw.InsertInvalid(k, 16).ok();
    sw.UpdateValue(k, "0123456789abcdef").ok();
  }
  Rng rng(6);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.Lookup(rng.NextBounded(100), &value));
  }
}
BENCHMARK(BM_CacheSwitchLookupHit);

void BM_PotRouterChoose(benchmark::State& state) {
  LoadTracker tracker({{32, 32}});
  for (uint32_t i = 0; i < 32; ++i) {
    tracker.Set({0, i}, i * 10);
    tracker.Set({1, i}, i * 7);
  }
  PotRouter router(&tracker, RoutingPolicy::kPowerOfTwo, 9);
  const std::vector<CacheNodeId> candidates{{0, 5}, {1, 9}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.Choose(candidates));
  }
}
BENCHMARK(BM_PotRouterChoose);

// ---- sharded-engine transport: in-process vs shared-memory ring -------------
// Uncontended single-thread push+pop round trip: a couple of plain loads/stores
// plus two release stores.
void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<uint64_t> ring(256);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(uint64_t{++x}));
    benchmark::DoNotOptimize(ring.TryPop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

// Cross-thread transfer throughput: producer thread 0, consumer thread 1.
// Run with --benchmark_filter=Transfer to compare the two transports under a
// real two-thread handoff (requires >= 2 online cores to be meaningful).
void BM_SpscRingTransfer(benchmark::State& state) {
  static SpscRing<uint64_t>* ring = nullptr;
  if (state.thread_index() == 0) {
    ring = new SpscRing<uint64_t>(1024);
  }
  uint64_t x = 0;
  for (auto _ : state) {
    if (state.threads() == 1) {
      // Single-thread fallback: self-transfer.
      while (!ring->TryPush(uint64_t{++x})) {
      }
      benchmark::DoNotOptimize(ring->TryPop());
    } else if (state.thread_index() == 0) {
      while (!ring->TryPush(uint64_t{++x})) {
      }
    } else {
      while (!ring->TryPop()) {
      }
    }
  }
  if (state.thread_index() == 0) {
    delete ring;
    ring = nullptr;
  }
}
BENCHMARK(BM_SpscRingTransfer)->Threads(1)->Threads(2)->UseRealTime();

// Same handoff over the multiproc substrate: a shared-memory arena ring
// (runtime/shm_ring.h) with one 64-byte slot per message. Threads stand in for
// the fork pair — each side holds its own view object over the same arena
// storage, exactly the aliasing the processes have — so the row isolates the
// ring-port cost (serialize-into-slot, offset arithmetic) without fork noise.
// Compare the two Transfer rows: shm ring vs in-process ring is the substrate
// swap.
void BM_ShmRingTransfer(benchmark::State& state) {
  constexpr size_t kCapacity = 1024;
  constexpr size_t kSlotBytes = sizeof(uint64_t);
  static ShmArena* arena = nullptr;
  if (state.thread_index() == 0) {
    arena = new ShmArena();
    arena->Map(ShmSpscRing::BytesFor(kCapacity, kSlotBytes),
               /*huge_pages=*/false);
  }
  // Per-thread view, like per-process views over the inherited mapping.
  ShmSpscRing ring(arena->base(), kCapacity, kSlotBytes);
  uint64_t x = 0;
  for (auto _ : state) {
    if (state.threads() == 1) {
      void* slot;
      while ((slot = ring.TryStage()) == nullptr) {
      }
      ++x;
      std::memcpy(slot, &x, sizeof(x));
      ring.Publish();
      const void* front = ring.Front();
      benchmark::DoNotOptimize(front);
      ring.Pop();
    } else if (state.thread_index() == 0) {
      void* slot;
      while ((slot = ring.TryStage()) == nullptr) {
      }
      ++x;
      std::memcpy(slot, &x, sizeof(x));
      ring.Publish();
    } else {
      const void* front;
      while ((front = ring.Front()) == nullptr) {
      }
      uint64_t v;
      std::memcpy(&v, front, sizeof(v));
      benchmark::DoNotOptimize(v);
      ring.Pop();
    }
  }
  if (state.thread_index() == 0) {
    delete arena;
    arena = nullptr;
  }
}
BENCHMARK(BM_ShmRingTransfer)->Threads(1)->Threads(2)->UseRealTime();

// ---- cache-line padding: per-thread load lanes ------------------------------
// Each thread hammers its own accumulator, either packed adjacently in one
// cache line (the pre-PR layout trap for per-shard LoadTracker lanes and stats
// accumulators) or padded to a line each (the scaling-substrate layout). On a
// multi-core host the unpadded variant collapses under coherence traffic;
// the padded one scales linearly. (On a single online core the two converge —
// false sharing is a cross-core cost.)
constexpr int kMaxLanes = 8;

void BM_LoadLanesUnpadded(benchmark::State& state) {
  alignas(kCacheLineSize) static double lanes[kMaxLanes];  // one shared line
  double* lane = &lanes[state.thread_index() % kMaxLanes];
  for (auto _ : state) {
    benchmark::DoNotOptimize(*lane += 1.0);
  }
}
BENCHMARK(BM_LoadLanesUnpadded)->Threads(1)->Threads(4)->UseRealTime();

void BM_LoadLanesPadded(benchmark::State& state) {
  struct alignas(kCacheLineSize) PaddedLane {
    double value;
  };
  static PaddedLane lanes[kMaxLanes];  // one line per lane
  double* lane = &lanes[state.thread_index() % kMaxLanes].value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*lane += 1.0);
  }
}
BENCHMARK(BM_LoadLanesPadded)->Threads(1)->Threads(4)->UseRealTime();

void BM_ClusterSimTick(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.num_spine = 32;
  cfg.num_racks = 32;
  cfg.servers_per_rack = 32;
  cfg.per_switch_objects = 100;
  ClusterSim sim(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunTicks(512.0, 1));
  }
}
BENCHMARK(BM_ClusterSimTick)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace distcache

BENCHMARK_MAIN();
