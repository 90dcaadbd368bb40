#include "analyze/rule_report.h"

#include <gtest/gtest.h>

#include "classify/evaluator.h"
#include "classify/rcbt.h"
#include "discretize/binning.h"
#include "mine/miner_common.h"
#include "synth/generator.h"
#include "test_util.h"

namespace topkrgs {
namespace {

TEST(RuleGroupStatsTest, RunningExampleAbc) {
  DiscreteDataset d = MakeRunningExampleDataset();
  Bitset a(d.num_items());
  a.Set(RunningExampleItem('a'));
  RuleGroup g = CloseItemset(d, a, 1);  // abc -> C, sup 2, conf 1.0

  const RuleGroupStats stats = ComputeRuleGroupStats(d, g);
  EXPECT_DOUBLE_EQ(stats.confidence, 1.0);
  EXPECT_EQ(stats.support, 2u);
  EXPECT_EQ(stats.antecedent_items, 3u);
  // Base rate of C is 3/5; lift = 1.0 / 0.6.
  EXPECT_NEAR(stats.lift, 1.0 / 0.6, 1e-12);
  EXPECT_NEAR(stats.class_coverage, 2.0 / 3.0, 1e-12);
  // Contingency {{2,0},{1,2}} over 5 rows: chi2 = 5*(2*2-0*1)^2/(2*3*3*2).
  EXPECT_NEAR(stats.chi_square, 5.0 * 16 / 36.0, 1e-9);
}

TEST(CoverageStatsTest, CountsCoverage) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 2;
  TopkResult result = MineTopkRGS(d, 1, opt);
  const CoverageStats cov = ComputeCoverage(d, 1, result.DistinctGroups());
  EXPECT_EQ(cov.class_rows, 3u);
  EXPECT_EQ(cov.covered, 3u);  // every class-C row covered
  EXPECT_DOUBLE_EQ(cov.coverage(), 1.0);
  EXPECT_GE(cov.mean_groups_per_row, 1.0);
}

TEST(CoverageStatsTest, EmptyGroupsCoverNothing) {
  DiscreteDataset d = MakeRunningExampleDataset();
  const CoverageStats cov = ComputeCoverage(d, 1, {});
  EXPECT_EQ(cov.covered, 0u);
  EXPECT_DOUBLE_EQ(cov.coverage(), 0.0);
  EXPECT_DOUBLE_EQ(cov.mean_groups_per_row, 0.0);
}

TEST(GeneUsageTest, CountsItemGenes) {
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(31));
  Pipeline p = PreparePipeline(data.train, data.test);
  // Two rules over the first three items.
  Rule r1, r2;
  r1.antecedent = Bitset(p.train.num_items());
  r1.antecedent.Set(0);
  r1.antecedent.Set(1);
  r2.antecedent = Bitset(p.train.num_items());
  r2.antecedent.Set(0);
  const auto usage = GeneUsage(p.discretization, {r1, r2});
  ASSERT_FALSE(usage.empty());
  // Item 0's gene is used twice (or more if items 0/1 share a gene).
  EXPECT_EQ(usage[0].second + (usage.size() > 1 ? usage[1].second : 0), 3u);
}

TEST(RenderReportTest, ContainsKeySections) {
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(32));
  Pipeline p = PreparePipeline(data.train, data.test);
  TopkMinerOptions opt;
  opt.k = 2;
  opt.min_support = MinSupportFromFrac(0.7, p.train.ClassCounts()[1]);
  TopkResult result = MineTopkRGS(p.train, 1, opt);
  const std::string report =
      RenderTopkReport(p.train, data.train, p.discretization, 1, result);
  EXPECT_NE(report.find("distinct"), std::string::npos);
  EXPECT_NE(report.find("Coverage:"), std::string::npos);
  EXPECT_NE(report.find("group 0:"), std::string::npos);
  EXPECT_NE(report.find("conf"), std::string::npos);
}

TEST(ConfusionMatrixTest, MetricsOnKnownMatrix) {
  ConfusionMatrix m;
  m.counts = {{8, 2}, {1, 9}};  // actual x predicted
  EXPECT_EQ(m.total(), 20u);
  EXPECT_DOUBLE_EQ(m.accuracy(), 17.0 / 20.0);
  EXPECT_DOUBLE_EQ(m.precision(0), 8.0 / 9.0);
  EXPECT_DOUBLE_EQ(m.recall(0), 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(m.precision(1), 9.0 / 11.0);
  EXPECT_DOUBLE_EQ(m.recall(1), 9.0 / 10.0);
  const double p = 8.0 / 9.0, r = 0.8;
  EXPECT_NEAR(m.f1(0), 2 * p * r / (p + r), 1e-12);
}

TEST(ConfusionMatrixTest, DegenerateCases) {
  ConfusionMatrix m;
  m.counts = {{0, 0}, {0, 0}};
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(m.precision(0), 0.0);
  EXPECT_DOUBLE_EQ(m.recall(1), 0.0);
  EXPECT_DOUBLE_EQ(m.f1(0), 0.0);
}

TEST(ConfusionMatrixTest, AgreesWithEvaluateDiscrete) {
  DiscreteDataset d = testing_util::RandomDataset(6, 20, 8, 0.5);
  auto predictor = [](const Bitset& items, bool* dflt) {
    *dflt = false;
    return static_cast<ClassLabel>(items.Test(0) ? 1 : 0);
  };
  const EvalOutcome eval = EvaluateDiscrete(d, predictor);
  const ConfusionMatrix matrix = ConfusionDiscrete(d, predictor);
  EXPECT_EQ(matrix.total(), eval.total);
  EXPECT_NEAR(matrix.accuracy(), eval.accuracy(), 1e-12);
}

TEST(BinningTest, EqualWidthProducesUniformCuts) {
  ContinuousDataset d(2);
  for (int i = 0; i <= 10; ++i) {
    d.AddRow({static_cast<double>(i), 5.0}, i % 2);
  }
  Discretization disc = FitEqualWidth(d, 4);
  // Gene 1 is constant and must be dropped.
  ASSERT_EQ(disc.num_selected_genes(), 1u);
  EXPECT_EQ(disc.selected_genes()[0], 0u);
  const auto& cuts = disc.cuts(0);
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_DOUBLE_EQ(cuts[0], 2.5);
  EXPECT_DOUBLE_EQ(cuts[1], 5.0);
  EXPECT_DOUBLE_EQ(cuts[2], 7.5);
  EXPECT_EQ(disc.num_items(), 4u);
}

TEST(BinningTest, EqualFrequencyBalancesBins) {
  ContinuousDataset d(1);
  for (int i = 0; i < 12; ++i) d.AddRow({static_cast<double>(i)}, i % 2);
  Discretization disc = FitEqualFrequency(d, 3);
  ASSERT_EQ(disc.num_selected_genes(), 1u);
  DiscreteDataset dd = disc.Apply(d);
  // 3 items, each covering 4 rows.
  ASSERT_EQ(dd.num_items(), 3u);
  for (ItemId item = 0; item < 3; ++item) {
    EXPECT_EQ(dd.ItemSupport(item), 4u) << item;
  }
}

TEST(BinningTest, EqualFrequencyHandlesHeavyTies) {
  ContinuousDataset d(1);
  for (int i = 0; i < 10; ++i) d.AddRow({1.0}, i % 2);
  d.AddRow({2.0}, 0);
  Discretization disc = FitEqualFrequency(d, 4);
  // Only one distinct boundary can exist.
  if (disc.num_selected_genes() > 0) {
    EXPECT_LE(disc.cuts(0).size(), 1u);
  }
}

TEST(BinningTest, EntropyBeatsUnsupervisedBinningOnAverage) {
  // A3 sanity: averaged over several Tiny datasets, RCBT with entropy-MDL
  // discretization is at least as accurate as with unsupervised
  // equal-width binning (per-seed either can win; fixed seeds keep this
  // deterministic).
  auto accuracy = [](const DiscreteDataset& train, const DiscreteDataset& test) {
    RcbtOptions opt;
    opt.k = 3;
    opt.nl = 4;
    RcbtClassifier clf = RcbtClassifier::Train(train, opt);
    return EvaluateDiscrete(test, [&](const Bitset& items, bool* dflt) {
             const auto pred = clf.Predict(items);
             *dflt = pred.used_default;
             return pred.label;
           }).accuracy();
  };
  double entropy_sum = 0.0;
  double width_sum = 0.0;
  const int kSeeds = 6;
  for (int seed = 33; seed < 33 + kSeeds; ++seed) {
    GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(seed));
    Pipeline entropy = PreparePipeline(data.train, data.test);
    entropy_sum += accuracy(entropy.train, entropy.test);
    Discretization width = FitEqualWidth(data.train, 2);
    width_sum += accuracy(width.Apply(data.train), width.Apply(data.test));
  }
  EXPECT_GE(entropy_sum / kSeeds + 1e-9, width_sum / kSeeds);
  EXPECT_GT(entropy_sum / kSeeds, 0.7);
}

}  // namespace
}  // namespace topkrgs
