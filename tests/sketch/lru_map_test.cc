#include "sketch/lru_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace distcache {

// A key whose hash collides in groups of eight consecutive values: every
// group shares one home bucket and one hash tag, so the index builds long
// probe chains and erasures must backward-shift across them.
struct CollidingKey {
  uint64_t v = 0;
  bool operator==(const CollidingKey&) const = default;
};

}  // namespace distcache

template <>
struct std::hash<distcache::CollidingKey> {
  size_t operator()(const distcache::CollidingKey& k) const { return k.v >> 3; }
};

namespace distcache {
namespace {

TEST(LruMap, PutGetRoundTrip) {
  LruMap<int, std::string> lru(4);
  EXPECT_FALSE(lru.Put(1, "one").has_value());
  ASSERT_NE(lru.Get(1), nullptr);
  EXPECT_EQ(*lru.Get(1), "one");
}

TEST(LruMap, MissingKeyIsNull) {
  LruMap<int, int> lru(2);
  EXPECT_EQ(lru.Get(5), nullptr);
  EXPECT_EQ(lru.Peek(5), nullptr);
}

TEST(LruMap, EvictsLeastRecentlyUsed) {
  LruMap<int, int> lru(2);
  lru.Put(1, 10);
  lru.Put(2, 20);
  const auto evicted = lru.Put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
  EXPECT_EQ(evicted->second, 10);
  EXPECT_FALSE(lru.Contains(1));
  EXPECT_TRUE(lru.Contains(2));
  EXPECT_TRUE(lru.Contains(3));
}

TEST(LruMap, GetPromotes) {
  LruMap<int, int> lru(2);
  lru.Put(1, 10);
  lru.Put(2, 20);
  lru.Get(1);  // 2 becomes LRU
  const auto evicted = lru.Put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2);
}

TEST(LruMap, PeekDoesNotPromote) {
  LruMap<int, int> lru(2);
  lru.Put(1, 10);
  lru.Put(2, 20);
  lru.Peek(1);  // 1 stays LRU
  const auto evicted = lru.Put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
}

TEST(LruMap, PutExistingUpdatesAndPromotes) {
  LruMap<int, int> lru(2);
  lru.Put(1, 10);
  lru.Put(2, 20);
  EXPECT_FALSE(lru.Put(1, 11).has_value());
  EXPECT_EQ(*lru.Get(1), 11);
  const auto evicted = lru.Put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2);
}

TEST(LruMap, EraseRemoves) {
  LruMap<int, int> lru(2);
  lru.Put(1, 10);
  EXPECT_TRUE(lru.Erase(1));
  EXPECT_FALSE(lru.Erase(1));
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LruMap, OldestReportsEvictionCandidate) {
  LruMap<int, int> lru(3);
  EXPECT_EQ(lru.Oldest(), nullptr);
  lru.Put(1, 10);
  lru.Put(2, 20);
  EXPECT_EQ(lru.Oldest()->first, 1);
  lru.Get(1);
  EXPECT_EQ(lru.Oldest()->first, 2);
}

TEST(LruMap, SizeTracksCapacity) {
  LruMap<int, int> lru(3);
  for (int i = 0; i < 10; ++i) {
    lru.Put(i, i);
  }
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.capacity(), 3u);
}

// Reference model: the straightforward std::list LRU, most-recently-used first.
template <typename K>
class RefLru {
 public:
  explicit RefLru(size_t capacity) : capacity_(capacity) {}

  std::optional<std::pair<K, int>> Put(const K& key, int value) {
    auto it = Find(key);
    if (it != order_.end()) {
      it->second = value;
      order_.splice(order_.begin(), order_, it);
      return std::nullopt;
    }
    order_.emplace_front(key, value);
    if (order_.size() <= capacity_) {
      return std::nullopt;
    }
    auto victim = order_.back();
    order_.pop_back();
    return victim;
  }
  const int* Get(const K& key) {
    auto it = Find(key);
    if (it == order_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it);
    return &order_.front().second;
  }
  const int* Peek(const K& key) {
    auto it = Find(key);
    return it == order_.end() ? nullptr : &it->second;
  }
  bool Erase(const K& key) {
    auto it = Find(key);
    if (it == order_.end()) {
      return false;
    }
    order_.erase(it);
    return true;
  }
  const std::pair<K, int>* Oldest() const {
    return order_.empty() ? nullptr : &order_.back();
  }
  const std::list<std::pair<K, int>>& order() const { return order_; }

 private:
  typename std::list<std::pair<K, int>>::iterator Find(const K& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        return it;
      }
    }
    return order_.end();
  }

  size_t capacity_;
  std::list<std::pair<K, int>> order_;
};

// Random Put/Get/Peek/Erase/Oldest sequence over `universe` keys; after every
// step the map's answers, size and full recency order must match the model.
template <typename K, typename MakeKey>
void RunLruDifferential(size_t capacity, uint64_t universe, uint64_t seed,
                        int steps, MakeKey make_key) {
  LruMap<K, int> lru(capacity);
  RefLru<K> ref(capacity);
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const K key = make_key(rng.NextBounded(universe));
    const int value = static_cast<int>(rng.NextBounded(1000));
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {
        const auto got = lru.Put(key, value);
        const auto want = ref.Put(key, value);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
          ASSERT_EQ(got->first, want->first) << "step " << step;
          ASSERT_EQ(got->second, want->second) << "step " << step;
        }
        break;
      }
      case 3:
      case 4: {
        const int* got = lru.Get(key);
        const int* want = ref.Get(key);
        ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
        if (got) {
          ASSERT_EQ(*got, *want) << "step " << step;
        }
        break;
      }
      case 5: {
        const int* got = lru.Peek(key);
        const int* want = ref.Peek(key);
        ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
        if (got) {
          ASSERT_EQ(*got, *want) << "step " << step;
        }
        ASSERT_EQ(lru.Contains(key), want != nullptr) << "step " << step;
        break;
      }
      case 6:
        ASSERT_EQ(lru.Erase(key), ref.Erase(key)) << "step " << step;
        break;
      case 7: {
        const auto* got = lru.Oldest();
        const auto* want = ref.Oldest();
        ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
        if (got) {
          ASSERT_EQ(got->first, want->first) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(lru.size(), ref.order().size()) << "step " << step;
    std::vector<std::pair<K, int>> order;
    lru.ForEach([&](const K& k, int v) { order.emplace_back(k, v); });
    ASSERT_TRUE(std::equal(order.begin(), order.end(), ref.order().begin(),
                           ref.order().end()))
        << "recency order diverged at step " << step;
  }
}

TEST(LruMapDifferential, MatchesListModel) {
  for (size_t capacity : {0, 1, 2, 100}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed " << seed);
      RunLruDifferential<uint64_t>(capacity, 3 * capacity + 4, seed, 5000,
                                   [](uint64_t v) { return v; });
    }
  }
}

TEST(LruMapDifferential, MatchesListModelUnderLongProbeChains) {
  for (size_t capacity : {0, 1, 2, 100}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed " << seed);
      RunLruDifferential<CollidingKey>(capacity, 3 * capacity + 16, seed, 5000,
                                       [](uint64_t v) { return CollidingKey{v}; });
    }
  }
}

TEST(LruMap, ClearEmptiesAndStaysUsable) {
  LruMap<int, int> lru(3);
  for (int i = 0; i < 5; ++i) {
    lru.Put(i, i);
  }
  lru.Clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_EQ(lru.Oldest(), nullptr);
  EXPECT_FALSE(lru.Contains(4));
  for (int i = 10; i < 14; ++i) {
    lru.Put(i, i);
  }
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.Oldest()->first, 11);
}

}  // namespace
}  // namespace distcache
