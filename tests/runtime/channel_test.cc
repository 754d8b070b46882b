#include "runtime/channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

namespace distcache {
namespace {

TEST(Channel, FifoWithinSingleProducer) {
  Channel<int> ch;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.Send(i));
  }
  for (int i = 0; i < 100; ++i) {
    auto v = ch.Receive();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(Channel, CloseDrainsThenReturnsNullopt) {
  Channel<int> ch;
  ASSERT_TRUE(ch.Send(1));
  ASSERT_TRUE(ch.Send(2));
  ch.Close();
  EXPECT_FALSE(ch.Send(3));  // closed channels reject new items
  EXPECT_EQ(ch.Receive().value_or(-1), 1);
  EXPECT_EQ(ch.Receive().value_or(-1), 2);
  EXPECT_FALSE(ch.Receive().has_value());
}

TEST(Channel, ReceiveBlocksUntilSend) {
  Channel<int> ch;
  std::thread producer([&ch] { ASSERT_TRUE(ch.Send(42)); });
  const auto v = ch.Receive();
  producer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(Channel, ManyProducersOneConsumerLosesNothing) {
  Channel<uint64_t> ch;
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.Send(1));
      }
    });
  }
  uint64_t sum = 0;
  for (uint64_t i = 0; i < kProducers * kPerProducer; ++i) {
    const auto v = ch.Receive();
    ASSERT_TRUE(v.has_value());
    sum += *v;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(sum, kProducers * kPerProducer);
}

// Send after close must be reported to the caller — the bool result is the only
// delivery signal a producer gets.
TEST(Channel, SendAfterCloseIsReported) {
  Channel<int> ch;
  ch.Close();
  EXPECT_FALSE(ch.Send(1));
  EXPECT_FALSE(ch.Send(2));
  EXPECT_FALSE(ch.Receive().has_value());
}

// Close wakes blocked receivers with end-of-stream.
TEST(Channel, CloseWakesBlockedReceiver) {
  Channel<int> ch;
  std::optional<int> got = 0;
  std::thread consumer([&] { got = ch.Receive(); });
  ch.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace distcache
