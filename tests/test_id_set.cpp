#include "common/id_set.hpp"

#include <gtest/gtest.h>

#include "common/node_id.hpp"

namespace gossip {
namespace {

// Every id lands once, then every repeat is seen, with ids spread over the
// whole 32-bit range so probes run into each other and wrap around.
TEST(IdSet, ReportsEachRepeatOfAFullList) {
  IdSet set;
  set.reset(1000);
  for (NodeId k = 0; k < 1000; ++k) EXPECT_TRUE(set.insert(k * 4'194'301u));
  for (NodeId k = 0; k < 1000; ++k) EXPECT_FALSE(set.insert(k * 4'194'301u));
}

TEST(IdSet, ResetEmptiesTheSetForAListOfAnyLength) {
  IdSet set;
  set.reset(2);
  EXPECT_TRUE(set.insert(kNilNode - 1));
  EXPECT_FALSE(set.insert(kNilNode - 1));
  EXPECT_TRUE(set.insert(0));
  set.reset(100);
  for (NodeId id = 0; id < 100; ++id) EXPECT_TRUE(set.insert(id));
  EXPECT_FALSE(set.insert(99));
  EXPECT_FALSE(set.insert(0));
  set.reset(0);
  EXPECT_TRUE(set.insert(99));
}

}  // namespace
}  // namespace gossip
