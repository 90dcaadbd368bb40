#include <gtest/gtest.h>

#include "topkrgs/topkrgs.h"

namespace topkrgs {
namespace {

/// End-to-end pipeline on a scaled-down dataset profile: generate,
/// discretize, mine, classify — the exact flow of the paper's evaluation.
class PipelineTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    data_ = GenerateMicroarray(DatasetProfile::Tiny(GetParam()));
    pipeline_ = PreparePipeline(data_.train, data_.test);
  }

  GeneratedData data_;
  Pipeline pipeline_;
};

TEST_P(PipelineTest, MinersAgreeOnTinyPipelineData) {
  const DiscreteDataset& train = pipeline_.train;
  const uint32_t minsup = MinSupportFromFrac(0.8, train.ClassCounts()[1]);

  FarmerOptions fo;
  fo.min_support = minsup;
  const auto farmer = MineFarmer(train, 1, fo);
  FarmerOptions fp = fo;
  fp.backend = FarmerOptions::Backend::kPrefixTree;
  const auto farmer_prefix = MineFarmer(train, 1, fp);
  CharmOptions co;
  co.min_support = minsup;
  co.materialize_rowsets = false;
  const auto charm = MineCharm(train, 1, co);

  EXPECT_EQ(farmer.groups.size(), farmer_prefix.groups.size());
  EXPECT_EQ(farmer.groups.size(), charm.groups.size());

  // MineTopkRGS with k=1: each covering group must be at least as
  // significant as every FARMER group covering the same row.
  TopkMinerOptions to;
  to.k = 1;
  to.min_support = minsup;
  const auto topk = MineTopkRGS(train, 1, to);
  for (RowId r = 0; r < train.num_rows(); ++r) {
    if (train.label(r) != 1 || topk.per_row[r].empty()) continue;
    const RuleGroup& best = *topk.per_row[r][0];
    for (const RuleGroup& g : farmer.groups) {
      if (!g.row_support.Test(r)) continue;
      EXPECT_GE(CompareSignificance(best.support, best.antecedent_support,
                                    g.support, g.antecedent_support),
                0)
          << "row " << r;
    }
  }
}

TEST_P(PipelineTest, TopkRGSCoversEveryTrainingRow) {
  // The headline property: with minsup at 70% of the class size, every
  // consequent-class row gets at least one covering rule group.
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    const uint32_t class_rows = pipeline_.train.ClassCounts()[cls];
    TopkMinerOptions opt;
    opt.k = 1;
    opt.min_support = MinSupportFromFrac(0.7, class_rows);
    const auto result = MineTopkRGS(pipeline_.train, cls, opt);
    for (RowId r = 0; r < pipeline_.train.num_rows(); ++r) {
      if (pipeline_.train.label(r) != cls) continue;
      EXPECT_FALSE(result.per_row[r].empty()) << "row " << r << " uncovered";
    }
  }
}

TEST_P(PipelineTest, AllClassifiersBeatRandomOnTest) {
  const auto counts = pipeline_.test.ClassCounts();
  const double majority =
      static_cast<double>(std::max(counts[0], counts[1])) /
      pipeline_.test.num_rows();

  RcbtOptions ro;
  ro.k = 4;
  ro.nl = 5;
  ro.item_scores = pipeline_.item_scores;
  RcbtClassifier rcbt = RcbtClassifier::Train(pipeline_.train, ro);
  const EvalOutcome rcbt_eval =
      EvaluateDiscrete(pipeline_.test, [&](const Bitset& row, bool* dflt) {
        const auto pred = rcbt.Predict(row);
        *dflt = pred.used_default;
        return pred.label;
      });
  EXPECT_GE(rcbt_eval.accuracy(), majority - 1e-9);

  CbaOptions co;
  co.item_scores = pipeline_.item_scores;
  CbaClassifier cba = TrainCba(pipeline_.train, co);
  const EvalOutcome cba_eval =
      EvaluateDiscrete(pipeline_.test, [&](const Bitset& row, bool* dflt) {
        return cba.Predict(row, dflt);
      });
  EXPECT_GT(cba_eval.accuracy(), 0.5);

  DecisionTree tree = DecisionTree::Train(pipeline_.train_selected, {}, {});
  const EvalOutcome tree_eval = EvaluateContinuous(
      pipeline_.test_selected, [&](const auto& x) { return tree.Predict(x); });
  EXPECT_GT(tree_eval.accuracy(), 0.5);

  SvmClassifier svm = SvmClassifier::Train(pipeline_.train_selected, {});
  const EvalOutcome svm_eval = EvaluateContinuous(
      pipeline_.test_selected, [&](const auto& x) { return svm.Predict(x); });
  EXPECT_GT(svm_eval.accuracy(), 0.5);
}

TEST_P(PipelineTest, RcbtUsesDefaultLessThanCba) {
  // The design goal of RCBT: fewer default-class decisions than CBA.
  RcbtOptions ro;
  ro.k = 4;
  ro.nl = 5;
  ro.item_scores = pipeline_.item_scores;
  RcbtClassifier rcbt = RcbtClassifier::Train(pipeline_.train, ro);
  CbaOptions co;
  co.item_scores = pipeline_.item_scores;
  CbaClassifier cba = TrainCba(pipeline_.train, co);

  const EvalOutcome rcbt_eval =
      EvaluateDiscrete(pipeline_.test, [&](const Bitset& row, bool* dflt) {
        const auto pred = rcbt.Predict(row);
        *dflt = pred.used_default;
        return pred.label;
      });
  const EvalOutcome cba_eval =
      EvaluateDiscrete(pipeline_.test, [&](const Bitset& row, bool* dflt) {
        return cba.Predict(row, dflt);
      });
  EXPECT_LE(rcbt_eval.default_used, cba_eval.default_used);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineTest,
                         ::testing::Values(1001, 1002, 1003));

TEST(TopkVsFarmerBoundTest, TopkOutputSizeIsBounded) {
  // |TopkRGS| <= k * rows while FARMER output is unbounded in comparison.
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(2024));
  Pipeline p = PreparePipeline(data.train, data.test);
  TopkMinerOptions opt;
  opt.k = 3;
  opt.min_support = MinSupportFromFrac(0.7, p.train.ClassCounts()[1]);
  const auto result = MineTopkRGS(p.train, 1, opt);
  EXPECT_LE(result.DistinctGroups().size(),
            static_cast<size_t>(opt.k) * p.train.num_rows());
}

}  // namespace
}  // namespace topkrgs
