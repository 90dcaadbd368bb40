// ChiMerge discretizer, transactional dataset I/O, multi-class mining, and
// loader robustness fuzzing.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "classify/cba.h"
#include "classify/evaluator.h"
#include "classify/model_io.h"
#include "core/dataset.h"
#include "discretize/binning.h"
#include "mine/naive_miner.h"
#include "mine/topk_miner.h"
#include "synth/generator.h"
#include "test_util.h"
#include "util/io.h"
#include "util/random.h"

namespace topkrgs {
namespace {

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info != nullptr ? info->name() : "unknown";
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + test +
         "_" + name;
}

TEST(ChiMergeTest, SeparableGeneGetsOneCut) {
  ContinuousDataset d(2);
  const double noise[] = {0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2, 0.6};
  for (int i = 0; i < 4; ++i) d.AddRow({static_cast<double>(i), noise[i]}, 0);
  for (int i = 4; i < 8; ++i) {
    d.AddRow({static_cast<double>(i) + 10, noise[i]}, 1);
  }
  Discretization disc = FitChiMerge(d);
  // Gene 0 separates the classes: kept with a single cut between 3 and 14.
  ASSERT_GE(disc.num_selected_genes(), 1u);
  EXPECT_EQ(disc.selected_genes()[0], 0u);
  const auto& cuts = disc.cuts(0);
  ASSERT_GE(cuts.size(), 1u);
  EXPECT_GT(cuts.front(), 3.0);
  EXPECT_LT(cuts.back(), 14.0);
  // Applying it separates the training rows perfectly on gene 0's item.
  DiscreteDataset dd = disc.Apply(d);
  for (RowId r = 0; r < dd.num_rows(); ++r) {
    EXPECT_EQ(dd.row_items(r)[0] == 0, d.label(r) == 0);
  }
}

TEST(ChiMergeTest, PureNoiseGeneIsDropped) {
  ContinuousDataset d(1);
  Rng rng(12);
  for (int i = 0; i < 40; ++i) d.AddRow({rng.NextGaussian()}, i % 2);
  Discretization disc = FitChiMerge(d, /*chi_threshold=*/3.8);
  // A single noise gene over many rows should almost always merge away.
  EXPECT_LE(disc.num_selected_genes(), 1u);
  if (disc.num_selected_genes() == 1) {
    EXPECT_LE(disc.cuts(0).size(), 5u);
  }
}

TEST(ChiMergeTest, MaxIntervalsCaps) {
  ContinuousDataset d(1);
  // Alternating labels along the value axis: chi-square wants many cuts.
  for (int i = 0; i < 30; ++i) d.AddRow({static_cast<double>(i)}, i % 2);
  Discretization disc = FitChiMerge(d, 0.1, 4);
  ASSERT_EQ(disc.num_selected_genes(), 1u);
  EXPECT_LE(disc.cuts(0).size(), 3u);  // <= max_intervals - 1 cuts
}

TEST(ChiMergeTest, TinyProfilePipelineWorks) {
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(55));
  Discretization disc = FitChiMerge(data.train);
  ASSERT_GT(disc.num_selected_genes(), 0u);
  DiscreteDataset train = disc.Apply(data.train);
  TopkMinerOptions opt;
  opt.k = 2;
  opt.min_support = MinSupportFromFrac(0.7, train.ClassCounts()[1]);
  const TopkResult result = MineTopkRGS(train, 1, opt);
  for (RowId r = 0; r < train.num_rows(); ++r) {
    if (train.label(r) == 1) {
      EXPECT_FALSE(result.per_row[r].empty());
    }
  }
}

TEST(ItemDataIoTest, RoundtripPreservesDataset) {
  DiscreteDataset d = testing_util::RandomDataset(61, 15, 20, 0.35);
  const std::string path = TempPath("items.txt");
  ASSERT_TRUE(d.WriteItemData(path).ok());
  auto back_or = DiscreteDataset::ReadItemData(path, d.num_items());
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const DiscreteDataset& back = back_or.value();
  ASSERT_EQ(back.num_rows(), d.num_rows());
  ASSERT_EQ(back.num_items(), d.num_items());
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(back.row_items(r), d.row_items(r));
    EXPECT_EQ(back.label(r), d.label(r));
  }
  std::remove(path.c_str());
}

TEST(ItemDataIoTest, InfersUniverseWhenUnspecified) {
  const std::string path = TempPath("items2.txt");
  ASSERT_TRUE(WriteLines(path, {"1\t0 4 7", "0\t2"}).ok());
  auto ds = DiscreteDataset::ReadItemData(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().num_items(), 8u);
  EXPECT_EQ(ds.value().num_rows(), 2u);
  // Declared universe too small -> error.
  EXPECT_FALSE(DiscreteDataset::ReadItemData(path, 5).ok());
  std::remove(path.c_str());
}

TEST(ItemDataIoTest, RejectsMalformed) {
  const std::string path = TempPath("items3.txt");
  ASSERT_TRUE(WriteLines(path, {"no-tab-here"}).ok());
  EXPECT_FALSE(DiscreteDataset::ReadItemData(path).ok());
  ASSERT_TRUE(WriteLines(path, {"1\tx y"}).ok());
  EXPECT_FALSE(DiscreteDataset::ReadItemData(path).ok());
  std::remove(path.c_str());
}

TEST(MultiClassTest, MinersHandleThreeClasses) {
  // Three-class dataset: miners run one consequent at a time; every class's
  // result must match the exhaustive oracle.
  Rng rng(71);
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  for (int i = 0; i < 12; ++i) {
    std::vector<ItemId> row = {static_cast<ItemId>(i % 3)};  // class marker
    for (ItemId noise = 3; noise < 10; ++noise) {
      if (rng.NextBool(0.4)) row.push_back(noise);
    }
    rows.push_back(row);
    labels.push_back(static_cast<ClassLabel>(i % 3));
  }
  DiscreteDataset d(10, std::move(rows), std::move(labels));
  ASSERT_EQ(d.num_classes(), 3u);
  for (ClassLabel cls = 0; cls < 3; ++cls) {
    const auto oracle = NaiveTopkRGS(d, cls, 2, 2);
    TopkMinerOptions opt;
    opt.k = 2;
    opt.min_support = 2;
    const TopkResult result = MineTopkRGS(d, cls, opt);
    for (RowId r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(testing_util::SignificanceSeq(result.per_row[r]),
                testing_util::SignificanceSeqValues(oracle[r]))
          << "cls=" << int(cls) << " row=" << r;
    }
  }
}

TEST(MultiClassTest, CbaTrainsOnThreeClasses) {
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  for (int i = 0; i < 15; ++i) {
    rows.push_back({static_cast<ItemId>(i % 3), static_cast<ItemId>(3 + i % 2)});
    labels.push_back(static_cast<ClassLabel>(i % 3));
  }
  DiscreteDataset d(5, std::move(rows), std::move(labels));
  CbaOptions opt;
  opt.min_support_frac = 0.5;
  CbaClassifier clf = TrainCba(d, opt);
  uint32_t correct = 0;
  for (RowId r = 0; r < d.num_rows(); ++r) {
    correct += clf.Predict(d.row_bitset(r)) == d.label(r);
  }
  EXPECT_EQ(correct, d.num_rows());
}

TEST(LoaderFuzzTest, CorruptedModelFilesNeverCrash) {
  // Save a real model, then hammer the loaders with random mutations of
  // its bytes: every load must either fail cleanly or return a usable
  // model — never crash.
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(81));
  Pipeline p = PreparePipeline(data.train, data.test);
  CbaOptions copt;
  copt.item_scores = p.item_scores;
  CbaClassifier cba = TrainCba(p.train, copt);
  const std::string path = TempPath("model.txt");
  ASSERT_TRUE(SaveCbaClassifier(cba, p.train.num_items(), path).ok());
  auto original_or = ReadLines(path);
  ASSERT_TRUE(original_or.ok());
  const auto& original = original_or.value();

  Rng rng(1234);
  const std::string mutated_path = TempPath("mutated.txt");
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> lines = original;
    switch (rng.NextBounded(4)) {
      case 0:  // truncate
        lines.resize(rng.NextBounded(lines.size() + 1));
        break;
      case 1: {  // corrupt one line
        if (!lines.empty()) {
          std::string& line = lines[rng.NextBounded(lines.size())];
          if (!line.empty()) {
            line[rng.NextBounded(line.size())] =
                static_cast<char>('!' + rng.NextBounded(90));
          }
        }
        break;
      }
      case 2:  // duplicate a line
        if (!lines.empty()) {
          lines.insert(lines.begin() + rng.NextBounded(lines.size()),
                       lines[rng.NextBounded(lines.size())]);
        }
        break;
      case 3:  // shuffle
        rng.Shuffle(lines);
        break;
    }
    ASSERT_TRUE(WriteLines(mutated_path, lines).ok());
    auto loaded = LoadCbaClassifier(mutated_path);
    if (loaded.ok()) {
      // If it parsed, it must predict without crashing.
      loaded.value().Predict(p.train.row_bitset(0));
    }
    auto as_rcbt = LoadRcbtClassifier(mutated_path);
    auto as_disc = LoadDiscretization(mutated_path);
    (void)as_rcbt;
    (void)as_disc;
  }
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

}  // namespace
}  // namespace topkrgs
