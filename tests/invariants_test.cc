// Exercises the debug invariant-checking framework (util/check.h,
// DESIGN.md §11): the CheckInvariants() predicates on PrefixTree,
// RuleGroup and the per-row top-k lists both on well-formed objects (all
// build types) and on deliberately corrupted state, where the
// ValidateInvariants() death tests prove TKRGS_DCHECK actually aborts in
// DCHECK-enabled builds (Debug/asan/tsan presets) and stays silent in
// release.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/rule.h"
#include "mine/miner_common.h"
#include "mine/prefix_tree.h"
#include "mine/topk_miner.h"
#include "test_util.h"
#include "util/check.h"

namespace topkrgs {

/// Test-only backdoor (declared in mine/prefix_tree.h): reaches the
/// private buffers so the corruption tests can break one invariant at a
/// time without widening the public API.
struct PrefixTree::TestPeer {
  static void SetNodeCount(PrefixTree* tree, size_t node, uint32_t count) {
    tree->nodes_[node].count = count;
  }
  static void SetNodePos(PrefixTree* tree, size_t node, uint32_t pos) {
    tree->nodes_[node].pos = pos;
  }
  static void SetHeaderFreq(PrefixTree* tree, uint32_t pos, uint32_t freq) {
    tree->headers_[pos].freq = freq;
  }
  static void SetTupleCount(PrefixTree* tree, uint64_t count) {
    tree->tuple_count_ = count;
  }
  static size_t NumNodes(const PrefixTree& tree) { return tree.nodes_.size(); }
};

namespace {

using testing_util::RandomDataset;

std::vector<RowId> IdentityOrder(uint32_t n) {
  std::vector<RowId> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

PrefixTree BuildExampleTree() {
  DiscreteDataset d = MakeRunningExampleDataset();
  return PrefixTree::BuildRoot(d, IdentityOrder(d.num_rows()),
                               Bitset::AllSet(d.num_items()));
}

RuleGroup WellFormedGroup() {
  DiscreteDataset d = MakeRunningExampleDataset();
  Bitset itemset(d.num_items());
  itemset.Set(RunningExampleItem('c'));
  return CloseItemset(d, itemset, /*consequent=*/0);
}

// ---------------------------------------------------------------------------
// TKRGS_DCHECK framework basics.

TEST(CheckFrameworkTest, DcheckCompiledInMatchesBuildType) {
#ifdef TOPKRGS_ENABLE_DCHECK
  EXPECT_EQ(TOPKRGS_DCHECK_IS_ON(), 1);
#else
  EXPECT_EQ(TOPKRGS_DCHECK_IS_ON(), 0);
#endif
}

TEST(CheckFrameworkTest, PassingChecksNeverAbort) {
  TKRGS_DCHECK(true, "never fires");
  TKRGS_DCHECK_EQ(2 + 2, 4, "arithmetic");
  TKRGS_DCHECK_LE(1, 2, "ordering");
  const std::vector<int> sorted{1, 2, 2, 3};
  TKRGS_DCHECK_SORTED(sorted.begin(), sorted.end(), std::less<int>(),
                      "non-decreasing with duplicates is sorted");
  const std::vector<int> unique{1, 2, 3};
  TKRGS_DCHECK_SORTED_UNIQUE(unique.begin(), unique.end(), std::less<int>(),
                             "strictly increasing");
}

TEST(CheckFrameworkTest, ReleaseBuildDoesNotEvaluateCondition) {
#if !TOPKRGS_DCHECK_IS_ON()
  bool evaluated = false;
  TKRGS_DCHECK(([&] {
                 evaluated = true;
                 return true;
               }()),
               "must not run in release");
  EXPECT_FALSE(evaluated);
#else
  GTEST_SKIP() << "DCHECK-enabled build evaluates conditions by design";
#endif
}

TEST(CheckFrameworkTest, SortedUniqueRejectsDuplicatesAndDisorder) {
  const std::vector<int> dup{1, 2, 2};
  const std::vector<int> unordered{3, 1, 2};
  EXPECT_FALSE(internal::RangeIsSortedUnique(dup.begin(), dup.end(),
                                             std::less<int>()));
  EXPECT_FALSE(internal::RangeIsSortedUnique(unordered.begin(),
                                             unordered.end(),
                                             std::less<int>()));
  EXPECT_FALSE(internal::RangeIsSorted(unordered.begin(), unordered.end(),
                                       std::less<int>()));
  const std::vector<int> empty;
  EXPECT_TRUE(internal::RangeIsSortedUnique(empty.begin(), empty.end(),
                                            std::less<int>()));
}

// ---------------------------------------------------------------------------
// RuleGroup invariants.

TEST(RuleGroupInvariantsTest, ClosedItemsetIsWellFormed) {
  const RuleGroup group = WellFormedGroup();
  std::string error;
  EXPECT_TRUE(group.CheckInvariants(&error)) << error;
  group.ValidateInvariants();  // must not abort on a well-formed group
}

TEST(RuleGroupInvariantsTest, DetectsSupportAboveAntecedentSupport) {
  RuleGroup group = WellFormedGroup();
  group.support = group.antecedent_support + 1;
  std::string error;
  EXPECT_FALSE(group.CheckInvariants(&error));
  EXPECT_NE(error.find("support"), std::string::npos) << error;
}

TEST(RuleGroupInvariantsTest, DetectsSupportSetCountMismatch) {
  RuleGroup group = WellFormedGroup();
  group.antecedent_support += 2;
  group.support = group.antecedent_support;  // keep conf valid: isolate one
  std::string error;
  EXPECT_FALSE(group.CheckInvariants(&error));
  EXPECT_NE(error.find("row_support"), std::string::npos) << error;
}

TEST(RuleGroupInvariantsDeathTest, ValidateAbortsOnCorruptGroup) {
#if TOPKRGS_DCHECK_IS_ON()
  RuleGroup group = WellFormedGroup();
  group.support = group.antecedent_support + 7;
  EXPECT_DEATH(group.ValidateInvariants(), "DCHECK failed");
#else
  // Release contract: ValidateInvariants is a no-op even on corrupt state.
  RuleGroup group = WellFormedGroup();
  group.support = group.antecedent_support + 7;
  group.ValidateInvariants();
#endif
}

// ---------------------------------------------------------------------------
// PrefixTree invariants.

TEST(PrefixTreeInvariantsTest, FreshRootAndConditionalsAreWellFormed) {
  const PrefixTree tree = BuildExampleTree();
  std::string error;
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  tree.ForEachFrequentPosition([&](uint32_t pos, uint32_t) {
    const PrefixTree cond = tree.Conditional(pos);
    std::string cond_error;
    EXPECT_TRUE(cond.CheckInvariants(&cond_error))
        << "conditional on " << pos << ": " << cond_error;
  });
}

TEST(PrefixTreeInvariantsTest, PlaceholderTreeIsWellFormed) {
  const PrefixTree tree;
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(PrefixTreeInvariantsTest, RandomDatasetTreesAreWellFormed) {
  const DiscreteDataset d = RandomDataset(/*seed=*/17, /*num_rows=*/24,
                                          /*num_items=*/40, /*density=*/0.3);
  const PrefixTree tree = PrefixTree::BuildRoot(d, IdentityOrder(d.num_rows()),
                                                Bitset::AllSet(d.num_items()));
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
}

TEST(PrefixTreeInvariantsTest, DetectsHeaderFreqMismatch) {
  PrefixTree tree = BuildExampleTree();
  PrefixTree::TestPeer::SetHeaderFreq(&tree, 0, tree.freq(0) + 1);
  std::string error;
  EXPECT_FALSE(tree.CheckInvariants(&error));
  EXPECT_NE(error.find("header chain"), std::string::npos) << error;
}

TEST(PrefixTreeInvariantsTest, DetectsChildCountExceedingParent) {
  PrefixTree tree = BuildExampleTree();
  ASSERT_GT(PrefixTree::TestPeer::NumNodes(tree), 2u);
  // Inflate a deep node: its parent's count no longer covers it.
  const size_t last = PrefixTree::TestPeer::NumNodes(tree) - 1;
  PrefixTree::TestPeer::SetNodeCount(&tree, last, 1u << 20);
  EXPECT_FALSE(tree.CheckInvariants());
}

TEST(PrefixTreeInvariantsTest, DetectsAscendingPathPosition) {
  PrefixTree tree = BuildExampleTree();
  ASSERT_GT(PrefixTree::TestPeer::NumNodes(tree), 2u);
  // Give the last node (guaranteed non-root, with a non-root parent in the
  // running example) a position above every parent: breaks the descending
  // path order AND its header chain membership.
  const size_t last = PrefixTree::TestPeer::NumNodes(tree) - 1;
  PrefixTree::TestPeer::SetNodePos(&tree, last, tree.num_positions() - 1);
  EXPECT_FALSE(tree.CheckInvariants());
}

TEST(PrefixTreeInvariantsTest, DetectsTupleCountBelowFirstLevel) {
  PrefixTree tree = BuildExampleTree();
  PrefixTree::TestPeer::SetTupleCount(&tree, 0);
  std::string error;
  EXPECT_FALSE(tree.CheckInvariants(&error));
  EXPECT_NE(error.find("tuple_count"), std::string::npos) << error;
}

TEST(PrefixTreeInvariantsDeathTest, ValidateAbortsOnCorruptTree) {
#if TOPKRGS_DCHECK_IS_ON()
  PrefixTree tree = BuildExampleTree();
  PrefixTree::TestPeer::SetHeaderFreq(&tree, 0, tree.freq(0) + 1);
  EXPECT_DEATH(tree.ValidateInvariants(), "DCHECK failed");
#else
  PrefixTree tree = BuildExampleTree();
  PrefixTree::TestPeer::SetHeaderFreq(&tree, 0, tree.freq(0) + 1);
  tree.ValidateInvariants();  // no-op in release
#endif
}

// ---------------------------------------------------------------------------
// Per-row top-k list invariants.

TopkResult MineExample(uint32_t k) {
  const DiscreteDataset d = RandomDataset(/*seed=*/5, /*num_rows=*/20,
                                          /*num_items=*/30, /*density=*/0.35);
  TopkMinerOptions options;
  options.k = k;
  options.min_support = 1;
  return MineTopkRGS(d, /*consequent=*/0, options);
}

TEST(TopkResultInvariantsTest, MinedResultsAreWellFormedForAllBackends) {
  // A narrow and a wide, sparse dataset, so both of Step 10's count
  // methods (per candidate, from item postings) feed the checked lists.
  const DiscreteDataset narrow = RandomDataset(
      /*seed=*/29, /*num_rows=*/18, /*num_items=*/28, /*density=*/0.3);
  const DiscreteDataset wide = testing_util::WideSparseDataset(
      /*seed=*/29, /*num_rows=*/14, /*num_items=*/640);
  for (const DiscreteDataset* d : {&narrow, &wide}) {
    for (const uint32_t k : {1u, 3u}) {
      TopkMinerOptions options;
      options.k = k;
      const TopkResult result = MineTopkRGS(*d, /*consequent=*/0, options);
      std::string error;
      EXPECT_TRUE(result.CheckInvariants(k, &error))
          << d->num_items() << " items, k " << k << ": " << error;
    }
  }
}

TEST(TopkResultInvariantsTest, DetectsOverfullList) {
  TopkResult result = MineExample(/*k=*/2);
  // Claiming the result was mined with k = 1 makes any 2-entry list a
  // violation — same check that would catch a list overflowing its k.
  std::string error;
  bool has_two_entry_row = false;
  for (const auto& list : result.per_row) {
    has_two_entry_row = has_two_entry_row || list.size() == 2;
  }
  ASSERT_TRUE(has_two_entry_row) << "example dataset must fill some list";
  EXPECT_FALSE(result.CheckInvariants(1, &error));
  EXPECT_NE(error.find("more than k"), std::string::npos) << error;
}

TEST(TopkResultInvariantsTest, DetectsDuplicateEntry) {
  TopkResult result = MineExample(/*k=*/2);
  for (auto& list : result.per_row) {
    if (!list.empty()) {
      list.push_back(list.front());
      break;
    }
  }
  std::string error;
  EXPECT_FALSE(result.CheckInvariants(3, &error));
  // Either the duplicate or (if the duplicated head outranked the tail)
  // the sort check trips — both are real violations of the same list.
  EXPECT_FALSE(error.empty());
}

TEST(TopkResultInvariantsTest, DetectsUnsortedList) {
  TopkResult result = MineExample(/*k=*/3);
  for (auto& list : result.per_row) {
    if (list.size() >= 2 &&
        MoreSignificant(*list.front(), *list.back())) {
      std::swap(list.front(), list.back());
      std::string error;
      EXPECT_FALSE(result.CheckInvariants(3, &error));
      EXPECT_NE(error.find("not sorted"), std::string::npos) << error;
      return;
    }
  }
  GTEST_SKIP() << "no strictly-ranked list in the example; nothing to swap";
}

TEST(TopkResultInvariantsTest, DetectsNonCoveringGroup) {
  TopkResult result = MineExample(/*k=*/1);
  // Move a row's group to a row its support set does not contain.
  for (size_t src = 0; src < result.per_row.size(); ++src) {
    if (result.per_row[src].empty()) continue;
    const RuleGroupPtr group = result.per_row[src].front();
    for (size_t dst = 0; dst < result.per_row.size(); ++dst) {
      if (dst < group->row_support.size() && !group->row_support.Test(dst)) {
        result.per_row[dst].assign(1, group);
        std::string error;
        EXPECT_FALSE(result.CheckInvariants(1, &error));
        EXPECT_NE(error.find("cover"), std::string::npos) << error;
        return;
      }
    }
  }
  GTEST_SKIP() << "every group covers every row in the example dataset";
}

TEST(TopkResultInvariantsDeathTest, ValidateAbortsOnCorruptResult) {
  TopkResult result = MineExample(/*k=*/1);
  ASSERT_FALSE(result.per_row.empty());
  RuleGroup corrupt = WellFormedGroup();
  corrupt.support = corrupt.antecedent_support + 3;
  result.per_row[0].assign(1, std::make_shared<const RuleGroup>(corrupt));
#if TOPKRGS_DCHECK_IS_ON()
  EXPECT_DEATH(result.ValidateInvariants(1), "DCHECK failed");
#else
  result.ValidateInvariants(1);  // no-op in release
#endif
}

}  // namespace
}  // namespace topkrgs
