#include <gtest/gtest.h>

#include "core/stats.h"
#include "mine/charm.h"
#include "mine/closet.h"
#include "mine/farmer.h"
#include "mine/naive_miner.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::Canonicalize;
using testing_util::RandomDataset;

std::vector<RuleGroup> OracleWithMinConf(const DiscreteDataset& d,
                                         ClassLabel cls, uint32_t minsup,
                                         double minconf) {
  std::vector<RuleGroup> groups = NaiveRuleGroups(d, cls, minsup);
  std::erase_if(groups, [&](const RuleGroup& g) {
    return g.confidence() < minconf - 1e-12;
  });
  return groups;
}

TEST(FarmerTest, RunningExampleAllGroups) {
  DiscreteDataset d = MakeRunningExampleDataset();
  FarmerOptions opt;
  opt.min_support = 2;
  MiningResult result = MineFarmer(d, 1, opt);
  const auto oracle = NaiveRuleGroups(d, 1, 2);
  EXPECT_EQ(Canonicalize(result.groups), Canonicalize(oracle));
}

class FarmerOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, double>> {};

TEST_P(FarmerOracleTest, MatchesOracle) {
  const auto [seed, minsup, minconf] = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    const auto oracle = OracleWithMinConf(d, cls, minsup, minconf);
    for (auto backend : {FarmerOptions::Backend::kVector,
                         FarmerOptions::Backend::kPrefixTree}) {
      FarmerOptions opt;
      opt.min_support = minsup;
      opt.min_confidence = minconf;
      opt.backend = backend;
      MiningResult result = MineFarmer(d, cls, opt);
      ASSERT_EQ(Canonicalize(result.groups), Canonicalize(oracle))
          << "seed=" << seed << " minsup=" << minsup << " minconf=" << minconf
          << " cls=" << int(cls) << " backend=" << int(backend);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FarmerOracleTest,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0.0, 0.6, 0.9)));

TEST(FarmerTest, ConfidencePruningNeverLosesGroups) {
  // minconf = 0 must produce every group that minconf = 0.8 produces.
  DiscreteDataset d = RandomDataset(21, 11, 13, 0.45);
  FarmerOptions all_opt;
  all_opt.min_support = 2;
  FarmerOptions conf_opt = all_opt;
  conf_opt.min_confidence = 0.8;
  const auto all = Canonicalize(MineFarmer(d, 1, all_opt).groups);
  const auto conf = Canonicalize(MineFarmer(d, 1, conf_opt).groups);
  for (const auto& g : conf) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), g));
  }
}

TEST(FarmerTest, ChiSquareFilterKeepsOnlyAssociatedGroups) {
  DiscreteDataset d = RandomDataset(41, 11, 13, 0.45);
  FarmerOptions base;
  base.min_support = 2;
  const auto all = MineFarmer(d, 1, base);
  FarmerOptions filtered = base;
  filtered.min_chi_square = 2.0;
  const auto strong = MineFarmer(d, 1, filtered);
  EXPECT_LE(strong.groups.size(), all.groups.size());
  // Every surviving group really has chi-square >= the threshold.
  const auto counts = d.ClassCounts();
  for (const RuleGroup& g : strong.groups) {
    const uint32_t with_class = g.support;
    const uint32_t with_other = g.antecedent_support - g.support;
    const double chi =
        ChiSquare({{with_class, with_other},
                   {counts[1] - with_class, counts[0] - with_other}});
    EXPECT_GE(chi, 2.0 - 1e-9);
  }
  // And the filter is exactly a post-filter of the unfiltered output.
  uint32_t qualifying = 0;
  for (const RuleGroup& g : all.groups) {
    const uint32_t with_class = g.support;
    const uint32_t with_other = g.antecedent_support - g.support;
    const double chi =
        ChiSquare({{with_class, with_other},
                   {counts[1] - with_class, counts[0] - with_other}});
    qualifying += chi >= 2.0;
  }
  EXPECT_EQ(strong.groups.size(), qualifying);
}

TEST(FarmerTest, MaxGroupsStopsEarly) {
  DiscreteDataset d = RandomDataset(13, 12, 14, 0.5);
  FarmerOptions opt;
  opt.min_support = 1;
  opt.max_groups = 3;
  MiningResult result = MineFarmer(d, 1, opt);
  EXPECT_EQ(result.groups.size(), 3u);
  EXPECT_TRUE(result.stats.timed_out);
}

class CharmOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(CharmOracleTest, MatchesOracle) {
  const auto [seed, minsup] = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    const auto oracle = NaiveRuleGroups(d, cls, minsup);
    CharmOptions opt;
    opt.min_support = minsup;
    MiningResult result = MineCharm(d, cls, opt);
    ASSERT_EQ(Canonicalize(result.groups), Canonicalize(oracle))
        << "seed=" << seed << " minsup=" << minsup << " cls=" << int(cls);
    // Row supports must be materialized and consistent.
    for (const RuleGroup& g : result.groups) {
      EXPECT_EQ(g.row_support, d.ItemSupportSet(g.antecedent));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CharmOracleTest,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(1u, 2u, 3u)));

class ClosetOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(ClosetOracleTest, MatchesOracle) {
  const auto [seed, minsup] = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    const auto oracle = NaiveRuleGroups(d, cls, minsup);
    ClosetOptions opt;
    opt.min_support = minsup;
    MiningResult result = MineCloset(d, cls, opt);
    ASSERT_EQ(Canonicalize(result.groups), Canonicalize(oracle))
        << "seed=" << seed << " minsup=" << minsup << " cls=" << int(cls);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosetOracleTest,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(BaselineAgreementTest, AllMinersFindTheSameClosedGroups) {
  for (uint64_t seed = 50; seed < 56; ++seed) {
    DiscreteDataset d = RandomDataset(seed, 11, 14, 0.45);
    FarmerOptions fo;
    fo.min_support = 2;
    CharmOptions co;
    co.min_support = 2;
    ClosetOptions lo;
    lo.min_support = 2;
    const auto farmer = Canonicalize(MineFarmer(d, 1, fo).groups);
    const auto charm = Canonicalize(MineCharm(d, 1, co).groups);
    const auto closet = Canonicalize(MineCloset(d, 1, lo).groups);
    EXPECT_EQ(farmer, charm) << seed;
    EXPECT_EQ(farmer, closet) << seed;
  }
}

TEST(NaiveMinerTest, RunningExampleGroups) {
  DiscreteDataset d = MakeRunningExampleDataset();
  const auto groups = NaiveRuleGroups(d, 1, 2);
  // Closed groups with class-C support >= 2: abc (rows 12), c (rows 1234),
  // cde (rows 134), e (rows 1345)... enumerate and sanity check key facts.
  bool found_abc = false;
  for (const auto& g : groups) {
    if (g.antecedent.Count() == 3 && g.support == 2 &&
        g.antecedent_support == 2) {
      found_abc = true;
    }
    EXPECT_GE(g.support, 2u);
    EXPECT_EQ(d.ItemSupportSet(g.antecedent), g.row_support);
  }
  EXPECT_TRUE(found_abc);
}

TEST(NaiveMinerTest, TopkListsAreSortedAndCovering) {
  DiscreteDataset d = RandomDataset(31, 9, 11, 0.5);
  const auto per_row = NaiveTopkRGS(d, 1, 1, 3);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    if (d.label(r) != 1) {
      EXPECT_TRUE(per_row[r].empty());
      continue;
    }
    for (size_t i = 0; i < per_row[r].size(); ++i) {
      EXPECT_TRUE(per_row[r][i].row_support.Test(r));
      if (i > 0) {
        EXPECT_GE(CompareSignificance(per_row[r][i - 1].support,
                                      per_row[r][i - 1].antecedent_support,
                                      per_row[r][i].support,
                                      per_row[r][i].antecedent_support),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace topkrgs
