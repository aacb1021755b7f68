#include "core/view.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace gossip {
namespace {

TEST(LocalView, StartsEmpty) {
  LocalView v(6);
  EXPECT_EQ(v.capacity(), 6u);
  EXPECT_EQ(v.degree(), 0u);
  EXPECT_EQ(v.empty_slots(), 6u);
  EXPECT_FALSE(v.full());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(v.slot_empty(i));
    EXPECT_TRUE(v.entry(i).empty());
  }
}

TEST(LocalView, SetAndClearTrackDegree) {
  LocalView v(4);
  v.set(1, ViewEntry{42, false});
  EXPECT_EQ(v.degree(), 1u);
  EXPECT_FALSE(v.slot_empty(1));
  EXPECT_EQ(v.entry(1).id, 42u);
  // Overwriting an occupied slot does not double count.
  v.set(1, ViewEntry{43, true});
  EXPECT_EQ(v.degree(), 1u);
  EXPECT_TRUE(v.entry(1).dependent);
  v.clear(1);
  EXPECT_EQ(v.degree(), 0u);
  v.clear(1);  // idempotent
  EXPECT_EQ(v.degree(), 0u);
}

TEST(LocalView, FullDetection) {
  LocalView v(2);
  v.set(0, ViewEntry{1, false});
  v.set(1, ViewEntry{2, false});
  EXPECT_TRUE(v.full());
  EXPECT_EQ(v.empty_slots(), 0u);
}

TEST(LocalView, RandomEmptySlotOnlyReturnsEmpty) {
  LocalView v(8);
  v.set(0, ViewEntry{1, false});
  v.set(3, ViewEntry{2, false});
  v.set(7, ViewEntry{3, false});
  Rng rng(1);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto slot = v.random_empty_slot(rng);
    EXPECT_TRUE(v.slot_empty(slot));
    seen.insert(slot);
  }
  EXPECT_EQ(seen.size(), 5u);  // all empty slots eventually chosen
}

TEST(LocalView, RandomNonemptySlotOnlyReturnsOccupied) {
  LocalView v(8);
  v.set(2, ViewEntry{1, false});
  v.set(5, ViewEntry{2, false});
  Rng rng(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto slot = v.random_nonempty_slot(rng);
    EXPECT_FALSE(v.slot_empty(slot));
    seen.insert(slot);
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(LocalView, RandomSlotSelectionIsUniform) {
  LocalView v(4);
  v.set(0, ViewEntry{1, false});
  v.set(2, ViewEntry{2, false});
  Rng rng(3);
  int count0 = 0;
  constexpr int kSamples = 40'000;
  for (int i = 0; i < kSamples; ++i) {
    if (v.random_nonempty_slot(rng) == 0) ++count0;
  }
  EXPECT_NEAR(count0, kSamples / 2, kSamples / 50);
}

TEST(LocalView, MultiplicityAndContains) {
  LocalView v(5);
  v.set(0, ViewEntry{9, false});
  v.set(1, ViewEntry{9, false});
  v.set(2, ViewEntry{4, false});
  EXPECT_EQ(v.multiplicity(9), 2u);
  EXPECT_EQ(v.multiplicity(4), 1u);
  EXPECT_EQ(v.multiplicity(5), 0u);
  EXPECT_TRUE(v.contains(9));
  EXPECT_FALSE(v.contains(5));
}

TEST(LocalView, EntriesAndIdsInSlotOrder) {
  LocalView v(4);
  v.set(3, ViewEntry{30, true});
  v.set(1, ViewEntry{10, false});
  const auto ids = v.ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[1], 30u);
  const auto entries = v.entries();
  EXPECT_FALSE(entries[0].dependent);
  EXPECT_TRUE(entries[1].dependent);
}

TEST(LocalView, DependentCount) {
  LocalView v(4);
  v.set(0, ViewEntry{1, true});
  v.set(1, ViewEntry{2, false});
  v.set(2, ViewEntry{3, true});
  EXPECT_EQ(v.dependent_count(), 2u);
}

TEST(LocalView, CopyIdsMatchesIdsAndSkipsEmptySlots) {
  LocalView v(6);
  std::vector<NodeId> out(v.capacity(), 99);
  EXPECT_EQ(v.copy_ids(out.data()), 0u);
  v.set(1, ViewEntry{4, true});
  v.set(3, ViewEntry{0, false});
  v.set(5, ViewEntry{4, false});
  ASSERT_EQ(v.copy_ids(out.data()), 3u);
  out.resize(3);
  EXPECT_EQ(out, v.ids());
  EXPECT_EQ(out, (std::vector<NodeId>{4, 0, 4}));
}

TEST(LocalView, IntraViewDuplicates) {
  LocalView v(6);
  IdSet scratch;
  EXPECT_EQ(v.intra_view_duplicates(scratch), 0u);
  v.set(0, ViewEntry{7, false});
  v.set(1, ViewEntry{7, false});
  v.set(2, ViewEntry{7, false});
  v.set(3, ViewEntry{8, false});
  EXPECT_EQ(v.intra_view_duplicates(scratch), 2u);
}

TEST(LocalView, ClearAll) {
  LocalView v(3);
  v.set(0, ViewEntry{1, false});
  v.set(1, ViewEntry{2, true});
  v.clear_all();
  EXPECT_EQ(v.degree(), 0u);
  EXPECT_EQ(v.dependent_count(), 0u);
}

}  // namespace
}  // namespace gossip
