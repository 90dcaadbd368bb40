#include "mine/topk_lists.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace topkrgs {
namespace {

constexpr uint32_t kRows = 16;

/// A group of `sup` consequent rows among the `asup` rows first..first+asup-1.
RuleGroupPtr Group(uint32_t sup, uint32_t asup, uint32_t first = 0) {
  auto group = std::make_shared<RuleGroup>();
  group->row_support = Bitset(kRows);
  for (uint32_t r = first; r < first + asup; ++r) group->row_support.Set(r);
  group->support = sup;
  group->antecedent_support = asup;
  return group;
}

std::vector<RuleGroupPtr> Listed(const TopkLists& lists, uint32_t slot) {
  std::vector<RuleGroupPtr> out;
  lists.Export(slot, &out);
  return out;
}

TEST(TopkListsTest, KthReadsZeroUntilTheListIsFull) {
  TopkLists lists(1, 3);
  EXPECT_TRUE(lists.Insert(0, Group(4, 4)));
  EXPECT_TRUE(lists.Insert(0, Group(3, 3)));
  EXPECT_EQ(lists.Kth(0).sup, 0u);
  EXPECT_EQ(lists.Kth(0).asup, 0u);
  EXPECT_EQ(lists.kth_changes(), 0u);
  EXPECT_TRUE(lists.Insert(0, Group(2, 4)));
  EXPECT_EQ(lists.Kth(0).sup, 2u);
  EXPECT_EQ(lists.Kth(0).asup, 4u);
  EXPECT_EQ(lists.kth_changes(), 1u);
}

TEST(TopkListsTest, TieOrWorseThanAFullListsKthChangesNothing) {
  TopkLists lists(1, 2);
  const RuleGroupPtr best = Group(5, 5);
  const RuleGroupPtr kth = Group(3, 4);
  ASSERT_TRUE(lists.Insert(0, best));
  ASSERT_TRUE(lists.Insert(0, kth));
  const uint64_t changes = lists.kth_changes();
  // A tie with the k-th entry (other rows), lower confidence, and equal
  // confidence with lower support all lose.
  for (const RuleGroupPtr& loser :
       {Group(3, 4, 8), Group(2, 4, 8), Group(3, 5, 8), Group(3, 4)}) {
    EXPECT_FALSE(lists.Insert(0, loser));
    EXPECT_EQ(Listed(lists, 0), (std::vector<RuleGroupPtr>{best, kth}));
    EXPECT_EQ(lists.Kth(0).sup, 3u);
    EXPECT_EQ(lists.Kth(0).asup, 4u);
    EXPECT_EQ(lists.kth_changes(), changes);
  }
}

TEST(TopkListsTest, DuplicateIdentityIsRejectedEvenAboveTheKth) {
  TopkLists lists(1, 3);
  const RuleGroupPtr top = Group(5, 5);
  const RuleGroupPtr kth = Group(2, 4, 4);
  ASSERT_TRUE(lists.Insert(0, top));
  ASSERT_TRUE(lists.Insert(0, Group(4, 5, 2)));
  ASSERT_TRUE(lists.Insert(0, kth));
  const uint64_t changes = lists.kth_changes();
  // Same (support, antecedent support, row support) as `top`, which beats
  // the k-th entry: a second object with the same identity is no new group.
  const RuleGroupPtr twin = Group(5, 5);
  EXPECT_FALSE(lists.Insert(0, twin));
  const std::vector<RuleGroupPtr> listed = Listed(lists, 0);
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0], top);
  EXPECT_EQ(listed[2], kth);
  EXPECT_EQ(lists.kth_changes(), changes);
  // The same significance over other rows is a different group.
  EXPECT_TRUE(lists.Insert(0, Group(5, 5, 6)));
}

TEST(TopkListsTest, EqualSignificanceKeepsArrivalOrder) {
  TopkLists lists(1, 4);
  const RuleGroupPtr first = Group(3, 4, 0);
  const RuleGroupPtr second = Group(3, 4, 4);
  const RuleGroupPtr third = Group(3, 4, 8);
  const RuleGroupPtr best = Group(6, 6);
  ASSERT_TRUE(lists.Insert(0, first));
  ASSERT_TRUE(lists.Insert(0, second));
  ASSERT_TRUE(lists.Insert(0, best));
  ASSERT_TRUE(lists.Insert(0, third));
  EXPECT_EQ(Listed(lists, 0),
            (std::vector<RuleGroupPtr>{best, first, second, third}));
}

TEST(TopkListsTest, KthChangesCountOnlyMovesOfTheKthEntry) {
  TopkLists lists(2, 2);
  ASSERT_TRUE(lists.Insert(0, Group(2, 4)));
  ASSERT_TRUE(lists.Insert(0, Group(3, 4, 4)));
  EXPECT_EQ(lists.kth_changes(), 1u);  // slot 0 filled: k-th (2, 4)
  // Enters above the k-th entry, which moves from (2, 4) to (3, 4).
  ASSERT_TRUE(lists.Insert(0, Group(5, 5)));
  EXPECT_EQ(lists.kth_changes(), 2u);
  EXPECT_EQ(lists.Kth(0).sup, 3u);
  // A tie with the k-th entry over other rows loses, so nothing moves.
  EXPECT_FALSE(lists.Insert(0, Group(3, 4, 9)));
  EXPECT_EQ(lists.kth_changes(), 2u);
  // Slot 1 filling up moves its own k-th entry once.
  ASSERT_TRUE(lists.Insert(1, Group(1, 1)));
  EXPECT_EQ(lists.kth_changes(), 2u);
  ASSERT_TRUE(lists.Insert(1, Group(1, 1, 3)));
  EXPECT_EQ(lists.kth_changes(), 3u);
  EXPECT_EQ(lists.Kth(1).sup, 1u);
  EXPECT_EQ(lists.Kth(0).sup, 3u);
}

TEST(TopkListsTest, MinsupRaiseNeedsEveryListFullOfExactGroups) {
  TopkLists lists(3, 1);
  const std::vector<uint32_t> slots = {0, 1, 2};
  ASSERT_TRUE(lists.Insert(0, Group(4, 4)));
  ASSERT_TRUE(lists.Insert(1, Group(3, 3, 4)));
  // Slot 2 is not full: no raise.
  EXPECT_EQ(lists.LowestExactKth(slots), 0u);
  EXPECT_EQ(lists.EffectiveMinsup(2, slots), 2u);
  // Slot 2 full but below 100% confidence: no raise.
  ASSERT_TRUE(lists.Insert(2, Group(5, 6, 8)));
  EXPECT_EQ(lists.LowestExactKth(slots), 0u);
  EXPECT_EQ(lists.EffectiveMinsup(2, slots), 2u);
  // Every k-th entry exact: minsup rises to one above the lowest support,
  // never below the initial one.
  ASSERT_TRUE(lists.Insert(2, Group(6, 6, 8)));
  EXPECT_EQ(lists.LowestExactKth(slots), 3u);
  EXPECT_EQ(lists.EffectiveMinsup(2, slots), 4u);
  EXPECT_EQ(lists.EffectiveMinsup(9, slots), 9u);
  // Over no slot there is nothing to raise on.
  EXPECT_EQ(lists.LowestExactKth({}), 0u);
  EXPECT_EQ(lists.EffectiveMinsup(2, {}), 2u);
}

TEST(TopkListsTest, OneGroupInTwoSlotsIsExportedAsOnePointer) {
  TopkLists lists(2, 2);
  const RuleGroupPtr shared = Group(3, 3);
  ASSERT_TRUE(lists.Insert(0, shared));
  ASSERT_TRUE(lists.Insert(1, shared));
  std::vector<RuleGroupPtr> out;
  lists.Export(0, &out);
  lists.Export(1, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], shared);
  EXPECT_EQ(out[1], shared);
}

}  // namespace
}  // namespace topkrgs
