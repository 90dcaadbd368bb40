#include "classify/cba.h"

#include <gtest/gtest.h>

#include "classify/irg.h"
#include "mine/miner_common.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

Rule MakeRule(const DiscreteDataset& d, std::initializer_list<uint32_t> items,
              ClassLabel cls, uint32_t sup, uint32_t asup) {
  Rule r;
  r.antecedent = Bitset(d.num_items());
  for (uint32_t i : items) r.antecedent.Set(i);
  r.consequent = cls;
  r.support = sup;
  r.antecedent_support = asup;
  return r;
}

TEST(SortRulesTest, PrecedenceOrder) {
  DiscreteDataset d(6, {{0}}, {0});
  std::vector<Rule> rules;
  rules.push_back(MakeRule(d, {0, 1}, 0, 2, 4));  // conf .5
  rules.push_back(MakeRule(d, {2}, 1, 3, 3));     // conf 1, sup 3
  rules.push_back(MakeRule(d, {3}, 1, 5, 5));     // conf 1, sup 5
  rules.push_back(MakeRule(d, {4, 5}, 0, 3, 3));  // conf 1, sup 3, longer? same len as {2}? no: 2 items
  SortRulesByPrecedence(&rules);
  // conf 1 sup 5 first; then conf 1 sup 3 (shorter antecedent {2} before
  // {4,5}); then conf .5.
  EXPECT_TRUE(rules[0].antecedent.Test(3));
  EXPECT_TRUE(rules[1].antecedent.Test(2));
  EXPECT_TRUE(rules[2].antecedent.Test(4));
  EXPECT_TRUE(rules[3].antecedent.Test(0));
}

TEST(SortRulesTest, TieBreakByDiscoveryOrder) {
  DiscreteDataset d(4, {{0}}, {0});
  std::vector<Rule> rules;
  rules.push_back(MakeRule(d, {0}, 0, 2, 2));
  rules.push_back(MakeRule(d, {1}, 1, 2, 2));
  SortRulesByPrecedence(&rules);
  EXPECT_TRUE(rules[0].antecedent.Test(0));  // earlier discovery first
}

TEST(CbaClassifierTest, SeparableDataIsLearnedPerfectly) {
  // Class 1 rows share item 0; class 0 rows share item 1.
  DiscreteDataset d(4, {{0, 2}, {0, 3}, {0, 2, 3}, {1, 2}, {1, 3}, {1, 2, 3}},
                    {1, 1, 1, 0, 0, 0});
  std::vector<Rule> rules;
  rules.push_back(MakeRule(d, {0}, 1, 3, 3));
  rules.push_back(MakeRule(d, {1}, 0, 3, 3));
  CbaClassifier clf = CbaClassifier::TrainFromRules(d, rules);
  // CBA cuts the rule list at the earliest prefix with minimal training
  // error; with a perfect first rule plus a matching default class, rows of
  // the default's class may legitimately be handled by the default.
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(clf.Predict(d.row_bitset(r)), d.label(r));
  }
  ASSERT_FALSE(clf.rules().empty());
  EXPECT_TRUE(clf.rules()[0].antecedent.Test(0));
}

TEST(CbaClassifierTest, DefaultClassIsMajorityOfUncovered) {
  // Only class-1 rows are covered by the single rule; the default must be
  // the majority among the remaining (class 0).
  DiscreteDataset d(3, {{0}, {0}, {1}, {1}, {1, 2}}, {1, 1, 0, 0, 0});
  std::vector<Rule> rules;
  rules.push_back(MakeRule(d, {0}, 1, 2, 2));
  CbaClassifier clf = CbaClassifier::TrainFromRules(d, rules);
  EXPECT_EQ(clf.default_class(), 0);
  Bitset unseen(3);
  bool used_default = false;
  EXPECT_EQ(clf.Predict(unseen, &used_default), 0);
  EXPECT_TRUE(used_default);
}

TEST(CbaClassifierTest, ErrorCutDropsHarmfulRules) {
  // A bad low-confidence rule sorted last should be cut away when it only
  // adds errors.
  DiscreteDataset d(4, {{0}, {0}, {1}, {1}}, {1, 1, 0, 0});
  std::vector<Rule> rules;
  rules.push_back(MakeRule(d, {0}, 1, 2, 2));  // perfect for class 1
  rules.push_back(MakeRule(d, {1}, 0, 2, 2));  // perfect for class 0
  rules.push_back(MakeRule(d, {1}, 1, 1, 2));  // conf 0.5 wrong rule
  CbaClassifier clf = CbaClassifier::TrainFromRules(d, rules);
  // The wrong rule never correctly classifies anything remaining (rows with
  // item 1 are removed by the second rule), so it is never selected; the
  // error cut may trim further, but training predictions stay perfect.
  EXPECT_LE(clf.rules().size(), 2u);
  for (const Rule& r : clf.rules()) {
    EXPECT_FALSE(r.antecedent.Test(1) && r.consequent == 1);
  }
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(clf.Predict(d.row_bitset(r)), d.label(r));
  }
}

TEST(CbaClassifierTest, EmptyRulesFallBackToMajority) {
  DiscreteDataset d(2, {{0}, {0}, {1}}, {1, 1, 0});
  CbaClassifier clf = CbaClassifier::TrainFromRules(d, {});
  EXPECT_EQ(clf.default_class(), 1);
  bool used_default = false;
  EXPECT_EQ(clf.Predict(d.row_bitset(2), &used_default), 1);
  EXPECT_TRUE(used_default);
}

TEST(TrainCbaTest, LearnsSeparableSyntheticData) {
  // Class-separable discrete data: items 0/1 mark the classes, plus noise.
  Rng rng(3);
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  for (int i = 0; i < 16; ++i) {
    std::vector<ItemId> row = {static_cast<ItemId>(i % 2 == 0 ? 0 : 1)};
    for (ItemId noise = 2; noise < 8; ++noise) {
      if (rng.NextBool(0.4)) row.push_back(noise);
    }
    rows.push_back(row);
    labels.push_back(i % 2 == 0 ? 1 : 0);
  }
  DiscreteDataset d(8, std::move(rows), std::move(labels));
  CbaOptions opt;
  opt.min_support_frac = 0.7;
  CbaClassifier clf = TrainCba(d, opt);
  uint32_t correct = 0;
  for (RowId r = 0; r < d.num_rows(); ++r) {
    correct += clf.Predict(d.row_bitset(r)) == d.label(r);
  }
  EXPECT_EQ(correct, d.num_rows());
}

TEST(TrainIrgTest, UpperBoundRulesClassifySeparableData) {
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 0) {
      rows.push_back({0, 2});
      labels.push_back(1);
    } else {
      rows.push_back({1, 3});
      labels.push_back(0);
    }
  }
  DiscreteDataset d(4, std::move(rows), std::move(labels));
  IrgOptions opt;
  CbaClassifier clf = TrainIrg(d, opt);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(clf.Predict(d.row_bitset(r)), d.label(r));
  }
}

TEST(TrainIrgTest, MinsupRoundsTheClassFraction) {
  // frac 0.7 of a class of n rows must mine at minsup round(0.7 n): item 0
  // covers one class row fewer than that, so no IRG rule may use it, while
  // item 1 covers exactly that many. At n = 90 a truncating conversion of
  // 0.7 * 90 = 62.99999999999999 mined at 62 and let item 0 in.
  for (const uint32_t n : {10u, 90u}) {
    const uint32_t minsup = MinSupportFromFrac(0.7, n);
    ASSERT_EQ(minsup, n == 10 ? 7u : 63u);
    std::vector<std::vector<ItemId>> rows(n);
    std::vector<ClassLabel> labels(n, 1);
    for (uint32_t r = 0; r < minsup - 1; ++r) rows[r].push_back(0);
    for (uint32_t r = n - minsup; r < n; ++r) rows[r].push_back(1);
    for (int i = 0; i < 4; ++i) {
      rows.push_back({2});
      labels.push_back(0);
    }
    const DiscreteDataset d(3, std::move(rows), std::move(labels));
    IrgOptions opt;
    opt.min_support_frac = 0.7;
    const CbaClassifier clf = TrainIrg(d, opt);
    bool item1_rule = false;
    for (const Rule& rule : clf.rules()) {
      if (rule.consequent != 1) continue;
      EXPECT_GE(rule.support, minsup) << "n=" << n;
      EXPECT_FALSE(rule.antecedent.Test(0)) << "n=" << n;
      item1_rule = item1_rule || rule.antecedent.Test(1);
    }
    EXPECT_TRUE(item1_rule) << "n=" << n;
  }
}

/// A class-closure dataset: the four class-1 rows share exactly items
/// {0, 1, 2}, and the three class-0 rows share exactly item 6. Each class
/// has one top-1 rule group, its whole-class closure.
DiscreteDataset ClassClosureDataset() {
  return DiscreteDataset(7,
                         {{0, 1, 2, 3},
                          {0, 1, 2, 4},
                          {0, 1, 2, 5},
                          {0, 1, 2, 3, 4},
                          {3, 4, 6},
                          {3, 5, 6},
                          {4, 5, 6}},
                         {1, 1, 1, 1, 0, 0, 0});
}

TEST(CbaClassifierTest, FullCoverageDefaultsToTrainingMajority) {
  // The two closure rules cover every training row, so no rows remain to
  // take a majority of; the default must be the training majority
  // (class 1, 4 rows against 3), not class 0 by label order.
  DiscreteDataset d = ClassClosureDataset();
  std::vector<Rule> rules;
  rules.push_back(MakeRule(d, {0, 1, 2}, 1, 4, 4));
  rules.push_back(MakeRule(d, {6}, 0, 3, 3));
  const CbaClassifier all =
      CbaClassifier::TrainFromRules(d, rules, /*apply_error_cut=*/false);
  EXPECT_EQ(all.rules().size(), 2u);
  EXPECT_EQ(all.default_class(), 1);
  // With the error cut, the first rule plus the class-0 default already
  // makes no training error, so the list stops there.
  const CbaClassifier cut = CbaClassifier::TrainFromRules(d, rules);
  EXPECT_EQ(cut.rules().size(), 1u);
  EXPECT_EQ(cut.default_class(), 0);
}

TEST(TrainIrgTest, OneClosureRuleSendsPartialMatchesToTheDefault) {
  // The mechanism behind IRG's low Table 2 accuracy. IRG keeps upper
  // bound rules, and the error cut stops after the first one: the
  // whole-class closure {0, 1, 2} -> 1, whose default (class 0) then
  // makes no training error. A class-1 row that holds a lower bound of
  // that group but not the whole upper bound falls through to the
  // default, which is by construction the other class.
  DiscreteDataset d = ClassClosureDataset();
  const CbaClassifier irg = TrainIrg(d, IrgOptions());
  ASSERT_EQ(irg.rules().size(), 1u);
  EXPECT_EQ(irg.rules()[0].antecedent.ToVector(),
            (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(irg.rules()[0].consequent, 1);
  EXPECT_EQ(irg.default_class(), 0);

  Bitset partial(d.num_items());  // a class-1 row lacking item 2
  for (uint32_t item : {0u, 1u, 3u}) partial.Set(item);
  bool used_default = false;
  EXPECT_EQ(irg.Predict(partial, &used_default), 0);
  EXPECT_TRUE(used_default);

  // CBA keeps a lower bound of the same group, which the row does hold.
  CbaOptions opt;
  const CbaClassifier cba = TrainCba(d, opt);
  EXPECT_EQ(cba.Predict(partial, &used_default), 1);
  EXPECT_FALSE(used_default);
}

TEST(TrainCbaTest, RandomDataDoesNotCrashAndCoversTraining) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    DiscreteDataset d = RandomDataset(seed, 12, 10, 0.4);
    CbaOptions opt;
    opt.min_support_frac = 0.3;
    CbaClassifier clf = TrainCba(d, opt);
    // Training accuracy must beat always-guessing-the-minority.
    uint32_t correct = 0;
    for (RowId r = 0; r < d.num_rows(); ++r) {
      correct += clf.Predict(d.row_bitset(r)) == d.label(r);
    }
    const auto counts = d.ClassCounts();
    const uint32_t majority = std::max(counts[0], counts[1]);
    EXPECT_GE(correct, majority) << seed;
  }
}

}  // namespace
}  // namespace topkrgs
