#include "core/controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

namespace distcache {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : placement_(8, 4) {
    const AllocationConfig cfg = AllocationConfig::TwoLayer(
        Mechanism::kDistCache, /*num_spine=*/8, /*num_racks=*/8,
        /*per_switch_objects=*/10);
    allocation_ = std::make_unique<CacheAllocation>(cfg, placement_);
    controller_ = std::make_unique<CacheController>(8);
  }

  Placement placement_;
  std::unique_ptr<CacheAllocation> allocation_;
  std::unique_ptr<CacheController> controller_;
};

TEST_F(ControllerTest, StartsWithIdentityMapping) {
  for (uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(controller_->spine_of_partition()[p], p);
    EXPECT_TRUE(controller_->IsAlive(p));
  }
  EXPECT_EQ(controller_->num_alive(), 8u);
}

TEST_F(ControllerTest, FailureRemapsToAliveSwitch) {
  controller_->OnSpineFailure(2);
  EXPECT_FALSE(controller_->IsAlive(2));
  EXPECT_EQ(controller_->num_alive(), 7u);
  const uint32_t target = controller_->spine_of_partition()[2];
  EXPECT_NE(target, 2u);
  EXPECT_TRUE(controller_->IsAlive(target));
  // Placement reflects the remap: partition 2's objects live on `target` now.
  const auto partition = allocation_->spine_contents()[2];
  ASSERT_EQ(partition.size(), 10u);
  for (const uint64_t key : partition) {
    EXPECT_EQ(controller_->Place(allocation_->CopiesOf(key)).spine(), target);
  }
}

// Every cached object keeps its copies through failures, none on a dead
// switch; the allocation itself does not change.
TEST_F(ControllerTest, RemapPlacesEveryCopyOnAnAliveSwitch) {
  const auto before = allocation_->spine_contents();
  controller_->OnSpineFailure(0);
  controller_->OnSpineFailure(1);
  EXPECT_EQ(allocation_->spine_contents(), before);
  for (const auto& partition : before) {
    for (const uint64_t key : partition) {
      const CacheCopies placed = controller_->Place(allocation_->CopiesOf(key));
      EXPECT_EQ(placed.num, allocation_->CopiesOf(key).num);
      ASSERT_TRUE(placed.spine().has_value());
      EXPECT_TRUE(controller_->IsAlive(*placed.spine()));
    }
  }
}

// A re-allocation keeps the remap in effect: the refilled set's partition-2
// objects land on the switch that took partition 2 over.
TEST_F(ControllerTest, ReallocationKeepsTheRemap) {
  controller_->OnSpineFailure(2);
  const uint32_t target = controller_->spine_of_partition()[2];
  std::vector<uint64_t> hottest;
  for (uint64_t i = 0; i < allocation_->candidate_pool(); ++i) {
    hottest.push_back(1'000'000 + i);
  }
  allocation_->Refill(hottest, placement_);
  const auto partition = allocation_->spine_contents()[2];
  ASSERT_FALSE(partition.empty());
  for (const uint64_t key : partition) {
    EXPECT_GE(key, 1'000'000u);
    EXPECT_EQ(controller_->Place(allocation_->CopiesOf(key)).spine(), target);
  }
}

TEST_F(ControllerTest, HealthyPartitionsStayHome) {
  controller_->OnSpineFailure(2);
  for (uint32_t p = 0; p < 8; ++p) {
    if (p != 2) {
      EXPECT_EQ(controller_->spine_of_partition()[p], p);
    }
  }
}

TEST_F(ControllerTest, MultipleFailuresSpread) {
  controller_->OnSpineFailure(0);
  controller_->OnSpineFailure(1);
  controller_->OnSpineFailure(2);
  std::set<uint32_t> targets;
  for (uint32_t p : {0u, 1u, 2u}) {
    const uint32_t t = controller_->spine_of_partition()[p];
    EXPECT_TRUE(controller_->IsAlive(t));
    targets.insert(t);
  }
  EXPECT_GE(targets.size(), 2u);  // consistent hashing should not dogpile one switch
}

TEST_F(ControllerTest, RecoveryRestoresIdentity) {
  controller_->OnSpineFailure(3);
  controller_->OnSpineRecovery(3);
  EXPECT_TRUE(controller_->IsAlive(3));
  EXPECT_EQ(controller_->spine_of_partition()[3], 3u);
  const auto partition = allocation_->spine_contents()[3];
  ASSERT_EQ(partition.size(), 10u);
  for (const uint64_t key : partition) {
    EXPECT_EQ(controller_->Place(allocation_->CopiesOf(key)).spine(), 3u);
  }
}

TEST_F(ControllerTest, DuplicateEventsAreNoOps) {
  controller_->OnSpineFailure(3);
  controller_->OnSpineFailure(3);
  EXPECT_EQ(controller_->num_alive(), 7u);
  controller_->OnSpineRecovery(3);
  controller_->OnSpineRecovery(3);
  EXPECT_EQ(controller_->num_alive(), 8u);
}

TEST_F(ControllerTest, LastAliveSwitchCannotFail) {
  for (uint32_t s = 0; s < 7; ++s) {
    controller_->OnSpineFailure(s);
  }
  EXPECT_EQ(controller_->num_alive(), 1u);
  controller_->OnSpineFailure(7);  // refused
  EXPECT_TRUE(controller_->IsAlive(7));
  EXPECT_EQ(controller_->num_alive(), 1u);
}

TEST_F(ControllerTest, OutOfRangeIgnored) {
  controller_->OnSpineFailure(99);
  EXPECT_EQ(controller_->num_alive(), 8u);
}

}  // namespace
}  // namespace distcache
