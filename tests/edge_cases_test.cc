// Edge cases across modules: degenerate datasets, deadline behaviour of the
// column miners, string rendering, and numeric extremes.

#include <gtest/gtest.h>

#include "core/rule.h"
#include "mine/charm.h"
#include "mine/closet.h"
#include "mine/naive_miner.h"
#include "mine/topk_miner.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

TEST(EdgeCaseTest, RuleToStringRendersItemsAndStats) {
  Rule r;
  r.antecedent = Bitset(8);
  r.antecedent.Set(2);
  r.antecedent.Set(5);
  r.consequent = 1;
  r.support = 3;
  r.antecedent_support = 4;
  const std::string s = r.ToString();
  EXPECT_NE(s.find("i2"), std::string::npos);
  EXPECT_NE(s.find("i5"), std::string::npos);
  EXPECT_NE(s.find("sup=3"), std::string::npos);
  EXPECT_NE(s.find("0.750"), std::string::npos);
}

TEST(EdgeCaseTest, CompareSignificanceAtExtremes) {
  // Products reach (2^32-1)^2 and must not overflow uint64.
  EXPECT_EQ(CompareSignificance(UINT32_MAX, UINT32_MAX, UINT32_MAX,
                                UINT32_MAX),
            0);
  EXPECT_GT(CompareSignificance(UINT32_MAX, UINT32_MAX, UINT32_MAX - 1,
                                UINT32_MAX),
            0);
  EXPECT_GT(CompareSignificance(1, 1, UINT32_MAX - 1, UINT32_MAX), 0);
}

TEST(EdgeCaseTest, MinerOnSingleClassDataset) {
  // All rows share one class: mining the absent class yields nothing and
  // must not crash; mining the present class works normally.
  DiscreteDataset d(4, {{0, 1}, {0, 2}, {0, 3}}, {1, 1, 1});
  TopkMinerOptions opt;
  opt.k = 2;
  opt.min_support = 1;
  const TopkResult present = MineTopkRGS(d, 1, opt);
  EXPECT_FALSE(present.per_row[0].empty());
  const TopkResult absent = MineTopkRGS(d, 0, opt);
  for (const auto& list : absent.per_row) EXPECT_TRUE(list.empty());
}

TEST(EdgeCaseTest, MinerOnRowsWithNoItems) {
  DiscreteDataset d(3, {{}, {0}, {}}, {1, 1, 0});
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 1;
  const TopkResult result = MineTopkRGS(d, 1, opt);
  // The empty row cannot be covered by any (non-empty) rule.
  EXPECT_TRUE(result.per_row[0].empty());
  ASSERT_EQ(result.per_row[1].size(), 1u);
  EXPECT_EQ(result.per_row[1][0]->support, 1u);
}

TEST(EdgeCaseTest, CharmDeadlineFlagsTimeout) {
  DiscreteDataset d = RandomDataset(101, 14, 16, 0.6);
  CharmOptions opt;
  opt.min_support = 1;
  opt.deadline = Deadline(1e-9);
  const MiningResult result = MineCharm(d, 1, opt);
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(EdgeCaseTest, ClosetDeadlineFlagsTimeout) {
  DiscreteDataset d = RandomDataset(102, 14, 16, 0.6);
  ClosetOptions opt;
  opt.min_support = 1;
  opt.deadline = Deadline(1e-9);
  const MiningResult result = MineCloset(d, 1, opt);
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(EdgeCaseTest, CharmMaxGroupsStopsEarly) {
  DiscreteDataset d = RandomDataset(103, 12, 14, 0.5);
  CharmOptions opt;
  opt.min_support = 1;
  opt.max_groups = 5;
  const MiningResult result = MineCharm(d, 1, opt);
  EXPECT_EQ(result.groups.size(), 5u);
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(EdgeCaseTest, DuplicateRowsAreAbsorbedNotDuplicated) {
  // Five identical rows: exactly one rule group exists (the shared items
  // with full support).
  DiscreteDataset d(3, {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}},
                    {1, 1, 1, 1, 1});
  TopkMinerOptions opt;
  opt.k = 5;
  opt.min_support = 1;
  const TopkResult result = MineTopkRGS(d, 1, opt);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    ASSERT_EQ(result.per_row[r].size(), 1u) << r;
    EXPECT_EQ(result.per_row[r][0]->support, 5u);
    EXPECT_EQ(result.per_row[r][0]->antecedent.Count(), 2u);
  }
}

TEST(EdgeCaseTest, KLargerThanGroupCountReturnsAll) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 50;  // far more than exist
  opt.min_support = 1;
  const TopkResult result = MineTopkRGS(d, 1, opt);
  const auto oracle = NaiveTopkRGS(d, 1, 1, 50);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(result.per_row[r].size(), oracle[r].size()) << r;
  }
}

}  // namespace
}  // namespace topkrgs
