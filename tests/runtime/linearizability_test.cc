// History checker for the thread-per-node runtime: concurrent clients record the
// invocation and response order of every Get and Put on one global sequence, and
// each key's history is checked against a single linearizable register with a
// Wing–Gong search. §4.3's two-phase protocol must make the cached copies invisible:
// the runtime behaves as one register per key.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/runtime.h"

namespace distcache {
namespace {

// One completed operation on a register.
struct Op {
  bool write = false;
  std::string value;    // written, or returned by the read
  uint64_t invoke = 0;  // global sequence numbers, invoke < respond
  uint64_t respond = 0;
};

// Wing–Gong search: is there a total order of `ops` that respects real time (an
// op that responded before another was invoked comes first) in which every read
// returns the latest write, or `initial` before any? Failed (done set, register
// value) states are memoized, which keeps a few hundred ops at low concurrency cheap.
bool Linearizable(std::vector<Op> ops, const std::string& initial) {
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.invoke < b.invoke; });
  std::vector<bool> done(ops.size(), false);
  std::set<std::pair<std::vector<bool>, std::string>> dead_ends;
  const std::function<bool(size_t, const std::string&)> search =
      [&](size_t left, const std::string& value) {
        if (left == 0) {
          return true;
        }
        if (dead_ends.contains({done, value})) {
          return false;
        }
        // Only an op invoked before every remaining op's response can come next.
        uint64_t horizon = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < ops.size(); ++i) {
          if (!done[i]) {
            horizon = std::min(horizon, ops[i].respond);
          }
        }
        for (size_t i = 0; i < ops.size() && ops[i].invoke < horizon; ++i) {
          if (done[i] || (!ops[i].write && ops[i].value != value)) {
            continue;
          }
          done[i] = true;
          const bool found = search(left - 1, ops[i].write ? ops[i].value : value);
          done[i] = false;
          if (found) {
            return true;
          }
        }
        dead_ends.emplace(done, value);
        return false;
      };
  return search(ops.size(), initial);
}

Op Write(std::string value, uint64_t invoke, uint64_t respond) {
  return Op{true, std::move(value), invoke, respond};
}
Op Read(std::string value, uint64_t invoke, uint64_t respond) {
  return Op{false, std::move(value), invoke, respond};
}

TEST(HistoryChecker, RejectsStaleReadAfterCompletedWrite) {
  EXPECT_FALSE(Linearizable({Write("a", 0, 1), Read("init", 2, 3)}, "init"));
}

TEST(HistoryChecker, AcceptsEitherValueForAReadConcurrentWithAWrite) {
  EXPECT_TRUE(Linearizable({Write("a", 0, 3), Read("init", 1, 2)}, "init"));
  EXPECT_TRUE(Linearizable({Write("a", 0, 3), Read("a", 1, 2)}, "init"));
}

TEST(HistoryChecker, RejectsReadsThatGoBackInTime) {
  // Both reads overlap the write, but once one returned "a" a later one cannot
  // return the older value.
  EXPECT_FALSE(
      Linearizable({Write("a", 0, 10), Read("a", 1, 2), Read("init", 3, 4)}, "init"));
  EXPECT_TRUE(
      Linearizable({Write("a", 0, 10), Read("init", 1, 2), Read("a", 3, 4)}, "init"));
}

TEST(HistoryChecker, RejectsAValueNeverWritten) {
  EXPECT_FALSE(Linearizable({Write("a", 0, 1), Read("b", 2, 3)}, "init"));
}

// 3 writers (every value unique) and 3 readers on two keys cached in both layers
// plus one uncached key: each key's history must be linearizable.
TEST(RuntimeHistory, ConcurrentGetsAndPutsAreLinearizable) {
  RuntimeConfig cfg;
  cfg.num_spine = 2;
  cfg.num_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.per_switch_objects = 8;
  cfg.num_keys = 512;
  DistCacheRuntime rt(cfg);
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; key < cfg.num_keys && keys.size() < 2; ++key) {
    if (rt.allocation().CopiesOf(key).num == 2) {
      keys.push_back(key);
    }
  }
  for (uint64_t key = cfg.num_keys; key-- > 0;) {
    if (!rt.allocation().CopiesOf(key).cached()) {
      keys.push_back(key);
      break;
    }
  }
  ASSERT_EQ(keys.size(), 3u);
  rt.Start();

  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kPutsEach = 30;
  constexpr int kGetsEach = 150;
  std::atomic<uint64_t> clock{0};
  std::atomic<int> failures{0};
  std::vector<std::vector<std::pair<uint64_t, Op>>> logs(kWriters + kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters + kReaders; ++t) {
    threads.emplace_back([&, t] {
      auto client = rt.NewClient(300 + t);
      const bool writer = t < kWriters;
      for (int i = 0; i < (writer ? kPutsEach : kGetsEach); ++i) {
        const uint64_t key = keys[(i + t) % keys.size()];
        Op op;
        op.write = writer;
        op.invoke = clock.fetch_add(1);
        if (writer) {
          op.value = "w" + std::to_string(t) + "." + std::to_string(i);
          failures += !client->Put(key, op.value).ok();
        } else {
          auto value = client->Get(key);
          failures += !value.ok();
          op.value = value.ok() ? std::move(value).value() : std::string();
        }
        op.respond = clock.fetch_add(1);
        logs[t].emplace_back(key, std::move(op));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  rt.Stop();
  ASSERT_EQ(failures.load(), 0);

  for (uint64_t key : keys) {
    std::vector<Op> history;
    for (const auto& log : logs) {
      for (const auto& [op_key, op] : log) {
        if (op_key == key) {
          history.push_back(op);
        }
      }
    }
    EXPECT_TRUE(Linearizable(std::move(history), DistCacheRuntime::ValueFor(key)))
        << "key " << key;
  }
}

}  // namespace
}  // namespace distcache
