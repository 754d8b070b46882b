#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/workload.h"

namespace distcache {
namespace {

RuntimeConfig SmallRuntime(Mechanism m = Mechanism::kDistCache) {
  RuntimeConfig cfg;
  cfg.mechanism = m;
  cfg.num_spine = 2;
  cfg.num_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.per_switch_objects = 8;
  cfg.num_keys = 512;
  return cfg;
}

TEST(Runtime, GetReturnsSeededValues) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(1);
  for (uint64_t key = 0; key < 100; ++key) {
    const auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(v.value(), DistCacheRuntime::ValueFor(key));
  }
  rt.Stop();
}

TEST(Runtime, HotKeysServedFromCache) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(2);
  // Key 0 is the hottest rank: cached in both layers.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->Get(0).ok());
  }
  rt.Stop();
  EXPECT_GE(rt.counters().cache_hits.load(), 50u);
}

TEST(Runtime, UncachedKeysGoToServers) {
  DistCacheRuntime rt(SmallRuntime(Mechanism::kNoCache));
  rt.Start();
  auto client = rt.NewClient(3);
  for (uint64_t key = 0; key < 20; ++key) {
    ASSERT_TRUE(client->Get(key).ok());
  }
  rt.Stop();
  EXPECT_EQ(rt.counters().cache_hits.load(), 0u);
  EXPECT_EQ(rt.counters().server_gets.load(), 20u);
}

TEST(Runtime, ReadAfterWriteIsConsistent) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(4);
  // Key 0 is cached in both layers; the write must update every copy so that both
  // PoT choices return the new value.
  ASSERT_TRUE(client->Put(0, "updated").ok());
  for (int i = 0; i < 40; ++i) {  // exercise both candidates
    const auto v = client->Get(0);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), "updated");
  }
  rt.Stop();
  EXPECT_GE(rt.counters().invalidations.load(), 1u);
  EXPECT_GE(rt.counters().cache_updates.load(), 1u);
}

// The primary rejects a value over the 128-byte cap: the client sees the rejection,
// and no cached copy may serve the rejected value afterwards.
TEST(Runtime, OversizePutIsRejected) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(4);
  EXPECT_EQ(client->Put(0, std::string(200, 'x')).code(), StatusCode::kInvalidArgument);
  for (int i = 0; i < 40; ++i) {  // exercise both candidates
    const auto v = client->Get(0);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), DistCacheRuntime::ValueFor(0));
  }
  rt.Stop();
}

// One write to a key cached in both layers: each copy is touched once per phase.
TEST(Runtime, CachedWriteChargesEachCopyPerPhase) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(4);
  ASSERT_TRUE(client->Put(0, "updated").ok());
  rt.Stop();  // servers drain first, so phase 2 has landed
  uint64_t total = 0;
  for (uint64_t l : rt.SpineLoads()) {
    total += l;
  }
  for (uint64_t l : rt.LeafLoads()) {
    total += l;
  }
  EXPECT_EQ(total, 4u);  // 2 copies x 2 phases
  EXPECT_EQ(rt.counters().invalidations.load(), 2u);
  EXPECT_EQ(rt.counters().cache_updates.load(), 2u);
}

TEST(Runtime, WriteToUncachedKeySkipsProtocol) {
  DistCacheRuntime rt(SmallRuntime(Mechanism::kNoCache));
  rt.Start();
  auto client = rt.NewClient(5);
  ASSERT_TRUE(client->Put(7, "x").ok());
  EXPECT_EQ(client->Get(7).value(), "x");
  rt.Stop();
  EXPECT_EQ(rt.counters().invalidations.load(), 0u);
}

TEST(Runtime, ReplicationWritesTouchAllSpines) {
  DistCacheRuntime rt(SmallRuntime(Mechanism::kCacheReplication));
  rt.Start();
  auto client = rt.NewClient(6);
  ASSERT_TRUE(client->Put(0, "r").ok());  // key 0 replicated in both spines + leaf
  rt.Stop();
  EXPECT_GE(rt.counters().invalidations.load(), 3u);
  EXPECT_GE(rt.counters().cache_updates.load(), 3u);
}

TEST(Runtime, TelemetryReachesClientTracker) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(7);
  for (int i = 0; i < 30; ++i) {
    client->Get(0).ok();
  }
  const auto& tracker = client->tracker();
  double total = 0.0;
  for (double l : tracker.spine_loads()) {
    total += l;
  }
  for (double l : tracker.leaf_loads()) {
    total += l;
  }
  EXPECT_GT(total, 0.0);
  rt.Stop();
}

TEST(Runtime, ConcurrentClientsSeeConsistentData) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&rt, c, &failures] {
      auto client = rt.NewClient(100 + c);
      WorkloadConfig wl;
      wl.num_keys = 512;
      wl.zipf_theta = 0.99;
      wl.seed = c;
      WorkloadGenerator gen(wl);
      for (int i = 0; i < 500; ++i) {
        const Op op = gen.Next();
        const auto v = client->Get(op.key);
        if (!v.ok() || v.value().empty()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  rt.Stop();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Runtime, ConcurrentWritersAndReaders) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::thread writer([&] {
    auto client = rt.NewClient(200);
    for (int i = 0; i < 200; ++i) {
      client->Put(0, "w" + std::to_string(i)).ok();
    }
    stop = true;
  });
  std::thread reader([&] {
    auto client = rt.NewClient(201);
    while (!stop) {
      const auto v = client->Get(0);
      // Value must always be either the seed or some writer value — never empty,
      // never a mix (two-phase coherence guarantees this).
      if (!v.ok() || (v.value()[0] != 'v' && v.value()[0] != 'w')) {
        ++bad_reads;
      }
    }
  });
  writer.join();
  reader.join();
  rt.Stop();
  EXPECT_EQ(bad_reads.load(), 0);
}

TEST(Runtime, StopIsIdempotentAndGetFailsAfterStop) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(8);
  rt.Stop();
  rt.Stop();
  EXPECT_EQ(client->Get(1).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client->Put(1, "x").code(), StatusCode::kUnavailable);
}

TEST(Runtime, LoadCountersExposedPerSwitch) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(9);
  for (int i = 0; i < 64; ++i) {
    client->Get(0).ok();
  }
  rt.Stop();
  uint64_t total = 0;
  for (uint64_t l : rt.SpineLoads()) {
    total += l;
  }
  for (uint64_t l : rt.LeafLoads()) {
    total += l;
  }
  EXPECT_GE(total, 64u);
}

// Shutdown must fail loudly, never hang: requests issued after Stop() get
// Unavailable (the closed-inbox Send is detected), and a client caught mid-flight
// by a concurrent Stop() must always be unblocked — the switch loop replies with
// an unavailable message when its forward to a closed server inbox is dropped.
TEST(Runtime, RequestsAfterStopReturnUnavailable) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  auto client = rt.NewClient(9);
  ASSERT_TRUE(client->Get(0).ok());
  rt.Stop();
  const auto get = client->Get(0);
  ASSERT_FALSE(get.ok());
  EXPECT_EQ(get.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client->Put(1, "x").code(), StatusCode::kUnavailable);
}

TEST(Runtime, ConcurrentStopNeverStrandsClients) {
  DistCacheRuntime rt(SmallRuntime());
  rt.Start();
  std::thread driver([&rt] {
    auto client = rt.NewClient(10);
    // Uncached keys force the switch→server forward that races Stop()'s inbox
    // close; every call must return (ok or Unavailable), never block forever.
    for (uint64_t key = 300; key < 512; ++key) {
      (void)client->Get(key);
    }
  });
  rt.Stop();
  driver.join();  // hangs here (test times out) if a reply was silently dropped
}

// Parameterized correctness across all four mechanisms: every key readable, and a
// write is immediately visible regardless of where copies live.
class RuntimeMechanismTest : public ::testing::TestWithParam<Mechanism> {};

TEST_P(RuntimeMechanismTest, ReadYourWrites) {
  DistCacheRuntime rt(SmallRuntime(GetParam()));
  rt.Start();
  auto client = rt.NewClient(10);
  for (uint64_t key : {0ull, 1ull, 100ull, 500ull}) {
    ASSERT_TRUE(client->Put(key, "nv" + std::to_string(key)).ok());
    for (int i = 0; i < 8; ++i) {
      const auto v = client->Get(key);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value(), "nv" + std::to_string(key));
    }
  }
  rt.Stop();
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, RuntimeMechanismTest,
                         ::testing::Values(Mechanism::kNoCache,
                                           Mechanism::kCachePartition,
                                           Mechanism::kCacheReplication,
                                           Mechanism::kDistCache),
                         [](const auto& param_info) { return MechanismName(param_info.param); });

}  // namespace
}  // namespace distcache
