// Cache-coherence walkthrough (§4.3): runs a write-heavy workload against a hot,
// twice-cached object and traces the two-phase update protocol — phase 1 invalidates
// every copy, the primary is updated and acknowledged, phase 2 re-validates with the
// new value. There is a single writer, so a linearizable store gives the racing
// reader non-decreasing versions; the demo exits 1 if a read goes back in time.
//
//   $ ./examples/coherence_demo
#include <atomic>
#include <cstdio>
#include <thread>

#include "runtime/runtime.h"

using namespace distcache;

int main() {
  RuntimeConfig config;
  config.num_spine = 2;
  config.num_racks = 2;
  config.servers_per_rack = 2;
  config.per_switch_objects = 8;
  config.num_keys = 1000;
  DistCacheRuntime runtime(config);
  runtime.Start();

  // Key 0 is the hottest object: cached in one spine switch and one leaf switch.
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> anomalies{0};
  std::thread reader([&] {
    auto client = runtime.NewClient(2);
    int last_version = -1;  // the seeded value, which precedes every write
    while (!done) {
      const auto v = client->Get(0);
      ++reads;
      int version = -1;
      if (!v.ok() || (v.value() != DistCacheRuntime::ValueFor(0) &&
                      std::sscanf(v.value().c_str(), "version-%d", &version) != 1)) {
        ++anomalies;  // two-phase coherence must never expose a torn value
      } else if (version < last_version) {
        ++anomalies;  // stale: older than a version this reader already saw
      } else {
        last_version = version;
      }
    }
  });

  auto writer = runtime.NewClient(1);
  for (int version = 0; version < 500; ++version) {
    writer->Put(0, "version-" + std::to_string(version)).ok();
  }
  done = true;
  reader.join();

  const auto final_value = runtime.NewClient(3)->Get(0);
  runtime.Stop();

  const auto& counters = runtime.counters();
  std::printf("writes                : %llu\n",
              static_cast<unsigned long long>(counters.writes.load()));
  std::printf("phase-1 invalidations : %llu (2 copies per write)\n",
              static_cast<unsigned long long>(counters.invalidations.load()));
  std::printf("phase-2 updates       : %llu\n",
              static_cast<unsigned long long>(counters.cache_updates.load()));
  std::printf("concurrent reads      : %d, torn/stale anomalies: %d\n", reads.load(),
              anomalies.load());
  std::printf("final value           : %s\n", final_value.value().c_str());
  return anomalies.load() == 0 ? 0 : 1;
}
