// The two-phase coherence protocol (§4.3) driven through a fake transport: it
// applies each delivered packet with ApplyCoherence and drops a configurable number
// of deliveries first, exercising the timeout-and-resend and unreachable-skip rules
// (§4.4).
#include "core/coherence.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace distcache {
namespace {

// A network that loses the next `drops` deliveries, then delivers every packet to
// the switch that `resolve` maps its copy to.
struct FakeTransport {
  std::function<CacheSwitch*(CacheNodeId)> resolve;
  int drops = 0;

  TwoPhaseCoherence::Transport Bind() {
    return [this](CoherencePhase phase, uint64_t key, const std::string& value,
                  std::vector<CacheNodeId>& pending) {
      std::vector<CacheNodeId> lost;
      for (const CacheNodeId& node : pending) {
        if (drops > 0) {
          --drops;
          lost.push_back(node);
        } else {
          ApplyCoherence(*resolve(node), phase, key, value);
        }
      }
      pending = std::move(lost);
    };
  }
};

CacheSwitch::Config SmallSwitch() {
  CacheSwitch::Config cfg;
  cfg.hh.sketch.width = 512;
  cfg.hh.bloom.bits = 2048;
  return cfg;
}

void SeedCopy(CacheSwitch& sw, uint64_t key, const std::string& value) {
  sw.InsertInvalid(key, 16).ok();
  sw.UpdateValue(key, value).ok();
}

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest() : server_(StorageServer::Config{0, 1.0}) {
    net_.resolve = [this](CacheNodeId node) {
      return node.layer == 0 ? spine_.get() : leaf_.get();
    };
    server_.Seed(1, "old").ok();
    SeedCopy(*spine_, 1, "old");
    SeedCopy(*leaf_, 1, "old");
  }

  StorageServer server_;
  std::unique_ptr<CacheSwitch> spine_ = std::make_unique<CacheSwitch>(SmallSwitch());
  std::unique_ptr<CacheSwitch> leaf_ = std::make_unique<CacheSwitch>(SmallSwitch());
  FakeTransport net_;
  TwoPhaseCoherence coherence_{net_.Bind(), TwoPhaseCoherence::Config{}};
  const std::vector<CacheNodeId> copies_{{0, 0}, {1, 0}};
};

TEST_F(CoherenceTest, UncachedWriteSkipsProtocol) {
  ASSERT_TRUE(coherence_.Write(2, "v", &server_, {}).ok());
  EXPECT_EQ(coherence_.stats().writes, 1u);
  EXPECT_EQ(coherence_.stats().cached_writes, 0u);
  EXPECT_EQ(coherence_.stats().invalidations_sent, 0u);
  EXPECT_EQ(server_.store().Get(2).value(), "v");
}

TEST_F(CoherenceTest, CachedWriteUpdatesEveryCopy) {
  ASSERT_TRUE(coherence_.Write(1, "new", &server_, copies_).ok());
  EXPECT_EQ(server_.store().Get(1).value(), "new");
  std::string v;
  EXPECT_EQ(spine_->Lookup(1, &v), LookupResult::kHit);
  EXPECT_EQ(v, "new");
  EXPECT_EQ(leaf_->Lookup(1, &v), LookupResult::kHit);
  EXPECT_EQ(v, "new");
}

TEST_F(CoherenceTest, StatsCountPhases) {
  coherence_.Write(1, "new", &server_, copies_).ok();
  const auto& stats = coherence_.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.cached_writes, 1u);
  EXPECT_EQ(stats.invalidations_sent, 2u);
  EXPECT_EQ(stats.updates_sent, 2u);
  EXPECT_EQ(stats.unreachable_copies, 0u);
}

TEST_F(CoherenceTest, ServerChargedPerCopy) {
  coherence_.Write(1, "new", &server_, copies_).ok();
  EXPECT_DOUBLE_EQ(server_.load(), 1.0 + 2.0);  // default unit cost 1.0 per copy
}

TEST_F(CoherenceTest, SwitchTelemetryChargedPerPhase) {
  coherence_.Write(1, "new", &server_, copies_).ok();
  EXPECT_EQ(spine_->TelemetryLoad(), 2u);  // invalidate + update
  EXPECT_EQ(leaf_->TelemetryLoad(), 2u);
}

TEST_F(CoherenceTest, UnreachableCopiesRetriedThenSkipped) {
  net_.drops = 1000;
  ASSERT_TRUE(coherence_.Write(1, "new", &server_, copies_).ok());
  EXPECT_EQ(server_.store().Get(1).value(), "new");  // primary still updated
  const auto& stats = coherence_.stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.unreachable_copies, 4u);  // 2 copies x 2 phases
}

// The client acknowledgment carries the primary's status, and a rejected primary
// update skips phase 2: the copies stay invalid and readers reach the primary.
TEST_F(CoherenceTest, RejectedPrimaryUpdateSkipsPhaseTwo) {
  Status acked = Status::Ok();
  const Status st = coherence_.Write(1, std::string(200, 'x'), &server_, copies_,
                                     [&acked](const Status& s) { acked = s; });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acked.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coherence_.stats().updates_sent, 0u);
  EXPECT_EQ(server_.store().Get(1).value(), "old");
  EXPECT_EQ(spine_->Lookup(1, nullptr), LookupResult::kInvalid);
  EXPECT_EQ(leaf_->Lookup(1, nullptr), LookupResult::kInvalid);
}

class FlakyCoherenceTest : public ::testing::Test {
 protected:
  FlakyCoherenceTest() : server_(StorageServer::Config{0, 1.0}) {
    net_.resolve = [this](CacheNodeId) { return sw_.get(); };
    server_.Seed(1, "old").ok();
    SeedCopy(*sw_, 1, "old");
  }

  std::unique_ptr<TwoPhaseCoherence> MakeCoherence(int drops, size_t max_retries) {
    net_.drops = drops;
    TwoPhaseCoherence::Config cfg;
    cfg.max_retries = max_retries;
    return std::make_unique<TwoPhaseCoherence>(net_.Bind(), cfg);
  }

  StorageServer server_;
  std::unique_ptr<CacheSwitch> sw_ = std::make_unique<CacheSwitch>(SmallSwitch());
  FakeTransport net_;
};

TEST_F(FlakyCoherenceTest, RetriesUntilSwitchReachable) {
  auto coherence = MakeCoherence(/*drops=*/2, /*max_retries=*/3);
  ASSERT_TRUE(coherence->Write(1, "new", &server_, {{1, 0}}).ok());
  EXPECT_EQ(coherence->stats().retries, 2u);
  EXPECT_EQ(coherence->stats().unreachable_copies, 0u);
  std::string v;
  EXPECT_EQ(sw_->Lookup(1, &v), LookupResult::kHit);
  EXPECT_EQ(v, "new");
}

TEST_F(FlakyCoherenceTest, GivesUpAfterMaxRetriesButPrimaryWins) {
  auto coherence = MakeCoherence(/*drops=*/100, /*max_retries=*/2);
  ASSERT_TRUE(coherence->Write(1, "new", &server_, {{1, 0}}).ok());
  EXPECT_GT(coherence->stats().unreachable_copies, 0u);
  // Primary has the new value; the cached copy was already invalid from an earlier
  // phase or stays stale-but-invalid — readers fall through to the server.
  EXPECT_EQ(server_.store().Get(1).value(), "new");
}

TEST_F(FlakyCoherenceTest, PhaseOneFailurePhaseTwoSucceeds) {
  // Phase 1 uses up the drops; phase 2 reaches the switch.
  auto coherence = MakeCoherence(/*drops=*/3, /*max_retries=*/3);
  ASSERT_TRUE(coherence->Write(1, "new", &server_, {{1, 0}}).ok());
  std::string v;
  EXPECT_EQ(sw_->Lookup(1, &v), LookupResult::kHit);
  EXPECT_EQ(v, "new");  // phase 2 repaired the copy
}

TEST_F(FlakyCoherenceTest, StatsDistinguishRetryFromUnreachable) {
  auto retried = MakeCoherence(1, 3);
  retried->Write(1, "a", &server_, {{1, 0}}).ok();
  EXPECT_EQ(retried->stats().retries, 1u);
  EXPECT_EQ(retried->stats().unreachable_copies, 0u);

  auto dead = MakeCoherence(1000, 1);
  dead->Write(1, "b", &server_, {{1, 0}}).ok();
  EXPECT_EQ(dead->stats().unreachable_copies, 2u);  // both phases gave up
}

}  // namespace
}  // namespace distcache
