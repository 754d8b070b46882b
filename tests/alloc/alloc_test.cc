// Hot-path allocation contract (ARCHITECTURE §2, hot-path rule 4: no heap
// allocation per batch). This binary replaces the global operator new with a
// counter and runs each in-process substrate — sequential, sharded x1 and
// sharded x2 on the thread launcher — at two run lengths. Set-up, timeline
// steps and teardown allocate a fixed amount, so the count must not grow with
// the number of requests. The one bounded exception is the static policies'
// heavy-hitter observer, whose report table doubles as keys cross the report
// threshold until it reaches its cap (sketch/heavy_hitter.h): at most
// log2(4·pool / 64) allocations per engine stream over a whole run, however
// long. The fork launcher's children are out of this hook's reach;
// LauncherDifferential covers them by value.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "sim/cluster_model.h"
#include "sim/sim_backend.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so that no allocation escapes the count and every
// pointer is freed by the allocator that made it (sanitizers check the pair).
void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace distcache {
namespace {

// The golden cluster of the sim tests (8 spines, 8 racks, 4 servers/rack, 1M
// keys, zipf 0.99, 20% writes, seed 42), batch 64.
SimBackendConfig BaseConfig(uint32_t shards) {
  SimBackendConfig bcfg;
  bcfg.cluster.num_spine = 8;
  bcfg.cluster.num_racks = 8;
  bcfg.cluster.servers_per_rack = 4;
  bcfg.cluster.per_switch_objects = 50;
  bcfg.cluster.num_keys = 1'000'000;
  bcfg.cluster.zipf_theta = 0.99;
  bcfg.cluster.write_ratio = 0.2;
  bcfg.cluster.seed = 42;
  bcfg.shards = shards;
  bcfg.batch_size = 64;
  return bcfg;
}

// Allocations made by building a backend, running it and destroying it.
uint64_t AllocationsOfRun(BackendKind kind, const SimBackendConfig& bcfg,
                          uint64_t requests) {
  const uint64_t before = g_allocations.load();
  {
    const BackendStats st = MakeSimBackend(kind, bcfg)->Run(requests);
    EXPECT_EQ(st.requests, requests);
  }
  return g_allocations.load() - before;
}

TEST(HotPathAllocations, DoNotGrowWithTheRequestCount) {
  struct Variant {
    std::string label;
    SimBackendConfig (*make)(uint32_t shards);
    bool observer;  // a static policy's re-allocation runs the observer
  };
  const std::vector<Variant> variants = {
      {"plain", [](uint32_t shards) { return BaseConfig(shards); }, false},
      // A static policy's shift + re-allocation (observer, report, refill
      // and rebuilt tables) under open-loop queueing. Every step fires
      // before the shorter run ends.
      {"realloc+open-loop",
       [](uint32_t shards) {
         SimBackendConfig bcfg = BaseConfig(shards);
         bcfg.cluster.cache_policy = CachePolicyKind::kStaticTopK;
         bcfg.events = {ClusterEvent::FailSpine(10'000, 0),
                        ClusterEvent::RunRecovery(20'000),
                        ClusterEvent::ShiftHotspot(30'000, 500'000),
                        ClusterEvent::ReallocateCache(40'000),
                        ClusterEvent::RecoverSpine(50'000, 0)};
         bcfg.queue.arrival.rate = 24.0;
         return bcfg;
       },
       true},
      // A dynamic policy's per-node caches and write-back path.
      {"lru write-back",
       [](uint32_t shards) {
         SimBackendConfig bcfg = BaseConfig(shards);
         bcfg.cluster.cache_policy = CachePolicyKind::kLru;
         bcfg.cluster.write_policy = WritePolicy::kWriteBack;
         return bcfg;
       },
       false},
  };
  const std::vector<std::pair<BackendKind, uint32_t>> substrates = {
      {BackendKind::kSequential, 1},
      {BackendKind::kSharded, 1},
      {BackendKind::kSharded, 2}};
  const uint64_t pool =
      ClusterModel(BaseConfig(1).cluster, /*build_popularity=*/false).pool;
  const uint64_t doublings =
      static_cast<uint64_t>(std::ceil(std::log2(4.0 * pool / 64.0)));
  for (const Variant& v : variants) {
    for (const auto& [kind, shards] : substrates) {
      SCOPED_TRACE(v.label + " " +
                   (kind == BackendKind::kSequential ? "sequential" : "sharded") +
                   " x" + std::to_string(shards));
      const SimBackendConfig bcfg = v.make(shards);
      const uint64_t short_run = AllocationsOfRun(kind, bcfg, 100'000);
      const uint64_t long_run = AllocationsOfRun(kind, bcfg, 400'000);
      EXPECT_LE(long_run, short_run + (v.observer ? shards * doublings : 0));
    }
  }
}

}  // namespace
}  // namespace distcache
