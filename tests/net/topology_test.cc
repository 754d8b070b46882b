#include "net/topology.h"

#include <gtest/gtest.h>

#include <vector>

namespace distcache {
namespace {

TEST(CacheNodeId, Equality) {
  EXPECT_EQ((CacheNodeId{0, 1}), (CacheNodeId{0, 1}));
  EXPECT_FALSE((CacheNodeId{0, 1}) == (CacheNodeId{1, 1}));
}

// Layer l's nodes occupy [LayerBegin(l), LayerEnd(l)), top layer first, and
// NodeOfFlat inverts Flat over the whole range.
TEST(LayerOffsets, FlatRoundTripsLayerByLayer) {
  const LayerOffsets offsets(std::vector<uint32_t>{4, 2, 8});
  EXPECT_EQ(offsets.num_layers(), 3u);
  EXPECT_EQ(offsets.total(), 14u);
  EXPECT_EQ(offsets.LayerBegin(1), 4u);
  EXPECT_EQ(offsets.LayerEnd(1), 6u);
  EXPECT_EQ(offsets.Flat({2, 0}), 6u);
  for (uint32_t flat = 0; flat < offsets.total(); ++flat) {
    EXPECT_EQ(offsets.Flat(offsets.NodeOfFlat(flat)), flat);
  }
}

}  // namespace
}  // namespace distcache
