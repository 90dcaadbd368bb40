// Production-workflow walkthrough: mine with MineTopkRGS,
// render a biologist-facing rule report, cross-validate RCBT, and persist
// the model for later use — the pieces a downstream user combines on their
// own data.
//
//   ./build/examples/report_and_cv

#include <cstdio>

#include "topkrgs/topkrgs.h"

using namespace topkrgs;

int main() {
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(2025));
  Pipeline pipeline = PreparePipeline(data.train, data.test);

  // 1. Mine the top-3 covering rule groups of every class-1 row.
  TopkMinerOptions mopt;
  mopt.k = 3;
  mopt.min_support = MinSupportFromFrac(0.7, pipeline.train.ClassCounts()[1]);
  TopkResult mined = MineTopkRGS(pipeline.train, 1, mopt);

  // 2. Rule report: significance, lift, chi-square and coverage per group.
  std::printf("%s\n", RenderTopkReport(pipeline.train, data.train,
                                       pipeline.discretization, 1, mined, 5)
                          .c_str());

  // 3. Cross-validate RCBT on the training split (stratified 4-fold).
  const CrossValidationResult cv = CrossValidateDiscrete(
      pipeline.train, 4, /*seed=*/17, [&](const DiscreteDataset& train) {
        RcbtOptions opt;
        opt.k = 3;
        opt.nl = 5;
        opt.item_scores = pipeline.item_scores;
        auto clf = std::make_shared<RcbtClassifier>(
            RcbtClassifier::Train(train, opt));
        return [clf](const Bitset& items, bool* dflt) {
          const auto pred = clf->Predict(items);
          *dflt = pred.used_default;
          return pred.label;
        };
      });
  std::printf("RCBT 4-fold CV on the training split: mean %.1f%%, pooled %.1f%%\n",
              100.0 * cv.mean_accuracy(), 100.0 * cv.pooled_accuracy());

  // 4. Train on everything, evaluate with the confusion matrix, persist.
  RcbtOptions opt;
  opt.k = 3;
  opt.nl = 5;
  opt.item_scores = pipeline.item_scores;
  RcbtClassifier clf = RcbtClassifier::Train(pipeline.train, opt);
  const ConfusionMatrix matrix =
      ConfusionDiscrete(pipeline.test, [&](const Bitset& items, bool* dflt) {
        const auto pred = clf.Predict(items);
        *dflt = pred.used_default;
        return pred.label;
      });
  std::printf("\nTest confusion matrix (actual x predicted):\n");
  for (size_t a = 0; a < matrix.counts.size(); ++a) {
    std::printf("  class %zu:", a);
    for (uint32_t c : matrix.counts[a]) std::printf(" %4u", c);
    std::printf("\n");
  }
  std::printf("accuracy %.1f%%; class-1 precision %.2f recall %.2f f1 %.2f\n",
              100.0 * matrix.accuracy(), matrix.precision(1), matrix.recall(1),
              matrix.f1(1));

  const std::string model_path = "/tmp/topkrgs_example_model.txt";
  const std::string disc_path = "/tmp/topkrgs_example_disc.txt";
  if (SaveRcbtClassifier(clf, pipeline.train.num_items(), model_path).ok() &&
      SaveDiscretization(pipeline.discretization, disc_path).ok()) {
    auto reloaded = LoadRcbtClassifier(model_path);
    std::printf("\nmodel persisted to %s and reloaded: %s\n",
                model_path.c_str(), reloaded.ok() ? "ok" : "FAILED");
  }
  return 0;
}
