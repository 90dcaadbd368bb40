// Oracle tests of MineTopkRGS on the inputs where its pruning does the
// most: pipeline-discretized data, both Step 10 count paths, random and
// tie-heavy datasets, and every ablation switch. Up to the exhaustive
// oracle's row limit the per-row lists must match NaiveTopkRGS; past it
// they must match the search with every pruning, the seeding and the
// dynamic minsup switched off, which finds the lists by enumeration alone.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "classify/evaluator.h"
#include "mine/naive_miner.h"
#include "mine/topk_miner.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "scale/topk_merge.h"
#include "synth/generator.h"
#include "synth/scale_profile.h"
#include "test_util.h"
#include "util/random.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;
using testing_util::SignificanceSeq;
using testing_util::SignificanceSeqValues;

/// Mines `data` with `opt` and checks every row's list against the
/// exhaustive oracle (at most 24 rows). Returns the result.
TopkResult ExpectMatchesOracle(const DiscreteDataset& data,
                               ClassLabel consequent,
                               const TopkMinerOptions& opt,
                               const std::string& context) {
  const auto oracle = NaiveTopkRGS(data, consequent, opt.min_support, opt.k);
  TopkResult got = MineTopkRGS(data, consequent, opt);
  EXPECT_FALSE(got.stats.timed_out) << context;
  EXPECT_EQ(got.per_row.size(), oracle.size()) << context;
  for (size_t r = 0; r < got.per_row.size() && r < oracle.size(); ++r) {
    EXPECT_EQ(SignificanceSeq(got.per_row[r]),
              SignificanceSeqValues(oracle[r]))
        << context << " row " << r;
  }
  return got;
}

/// Mines `data` with `opt` and checks every row's list against the search
/// with use_topk_pruning, use_bound_pruning, seed_single_items and
/// dynamic_min_support off (the backward check stays: it skips only
/// subtrees that emit nothing). Returns the result.
TopkResult ExpectMatchesUnpruned(const DiscreteDataset& data,
                                 ClassLabel consequent,
                                 const TopkMinerOptions& opt,
                                 const std::string& context) {
  TopkMinerOptions plain = opt;
  plain.use_topk_pruning = false;
  plain.use_bound_pruning = false;
  plain.seed_single_items = false;
  plain.dynamic_min_support = false;
  const TopkResult reference = MineTopkRGS(data, consequent, plain);
  TopkResult got = MineTopkRGS(data, consequent, opt);
  EXPECT_FALSE(reference.stats.timed_out) << context;
  EXPECT_FALSE(got.stats.timed_out) << context;
  EXPECT_EQ(got.per_row.size(), reference.per_row.size()) << context;
  for (size_t r = 0; r < got.per_row.size() && r < reference.per_row.size();
       ++r) {
    EXPECT_EQ(SignificanceSeq(got.per_row[r]),
              SignificanceSeq(reference.per_row[r]))
        << context << " row " << r;
  }
  return got;
}

TEST(TopkSearchOracleTest, MatchesOracle) {
  for (uint64_t seed : {2u, 5u}) {
    const DiscreteDataset data = RandomDataset(seed, 16, 18, 0.45);
    TopkMinerOptions opt;
    opt.k = 2;
    opt.min_support = 2;
    ExpectMatchesOracle(data, 1, opt, "seed " + std::to_string(seed));
  }
}

TEST(TopkSearchOracleTest, PipelineDataMatchesUnprunedSearch) {
  for (uint64_t seed : {7u, 19u}) {
    const GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(seed));
    const Pipeline pipeline = PreparePipeline(data.train, data.test);
    for (ClassLabel consequent : {0, 1}) {
      TopkMinerOptions opt;
      opt.k = 3;
      opt.min_support = 2;
      ExpectMatchesUnpruned(pipeline.train, consequent, opt,
                            "tiny seed " + std::to_string(seed) + " class " +
                                std::to_string(consequent));
    }
  }
}

TEST(TopkSearchOracleTest, BothCountPathsMatchUnprunedSearch) {
  // Step 10 counts per candidate on the narrow dataset and partly from
  // item postings on the wide one.
  const DiscreteDataset narrow = RandomDataset(11, 28, 40, 0.35);
  const DiscreteDataset wide = testing_util::WideSparseDataset(11, 24, 640);
  TopkMinerOptions opt;
  opt.k = 4;
  opt.min_support = 2;
  const TopkResult narrow_result =
      ExpectMatchesUnpruned(narrow, 1, opt, "narrow");
  const TopkResult wide_result = ExpectMatchesUnpruned(wide, 1, opt, "wide");
  EXPECT_EQ(narrow_result.stats.postings_scans, 0u);
  EXPECT_GT(wide_result.stats.postings_scans, 0u);
  EXPECT_LT(wide_result.stats.postings_scans, wide_result.stats.freq_scans);
}

TEST(TopkSearchOracleTest, RandomDatasetsMatchUnprunedSearch) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const DiscreteDataset data = RandomDataset(seed, 24, 32, 0.4);
    for (uint32_t k : {1u, 2u, 5u}) {
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = 1 + static_cast<uint32_t>(seed % 3);
      ExpectMatchesUnpruned(data, 1, opt,
                            "seed " + std::to_string(seed) + " k " +
                                std::to_string(k));
    }
  }
}

TEST(TopkSearchOracleTest, AblationsMatchUnprunedSearch) {
  // Each ablation switch makes the search visit other nodes; the lists
  // must not move.
  const DiscreteDataset data = RandomDataset(3, 22, 30, 0.4);
  TopkMinerOptions opt;
  opt.k = 3;
  opt.min_support = 2;
  opt.use_topk_pruning = false;
  ExpectMatchesUnpruned(data, 1, opt, "no-topk-pruning");

  opt.use_topk_pruning = true;
  opt.use_bound_pruning = false;
  ExpectMatchesUnpruned(data, 1, opt, "no-bound-pruning");

  opt.use_bound_pruning = true;
  opt.use_backward_pruning = false;
  ExpectMatchesUnpruned(data, 1, opt, "no-backward-pruning");

  opt.use_backward_pruning = true;
  opt.seed_single_items = false;
  opt.dynamic_min_support = false;
  ExpectMatchesUnpruned(data, 1, opt, "no-seeding-no-dynamic-minsup");
}

/// A dataset whose positive rows each appear three times, so every group
/// covers whole triples and significance ties are everywhere: between the
/// copies, and between the k-th entries of distinct rows. A candidate that
/// ties a k-th entry must lose there, as it does in TopkLists::Insert.
DiscreteDataset TripledPositives(uint64_t seed, uint32_t distinct_positives,
                                 uint32_t negatives, ItemId num_items) {
  Rng rng(seed);
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  auto random_row = [&] {
    std::vector<ItemId> items;
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.NextBool(0.45)) items.push_back(i);
    }
    return items;
  };
  for (uint32_t r = 0; r < distinct_positives; ++r) {
    const std::vector<ItemId> items = random_row();
    for (int copy = 0; copy < 3; ++copy) {
      rows.push_back(items);
      labels.push_back(1);
    }
  }
  for (uint32_t r = 0; r < negatives; ++r) {
    rows.push_back(random_row());
    labels.push_back(0);
  }
  return DiscreteDataset(num_items, std::move(rows), std::move(labels));
}

TEST(TopkSearchOracleTest, TieHeavyDatasetMatchesOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const DiscreteDataset data = TripledPositives(seed, 4, 6, 14);
    for (uint32_t k : {1u, 2u, 3u}) {
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = 2;
      ExpectMatchesOracle(data, 1, opt,
                          "seed " + std::to_string(seed) + " k " +
                              std::to_string(k));
    }
  }
  // Past the oracle's row limit: longer searches whose folded cuts tie at
  // many rows.
  for (uint64_t seed : {10u, 15u, 16u}) {
    const DiscreteDataset data = TripledPositives(seed, 10, 10, 30);
    for (uint32_t k : {3u, 5u}) {
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = 1;
      ExpectMatchesUnpruned(data, 1, opt,
                            "tripled seed " + std::to_string(seed) + " k " +
                                std::to_string(k));
    }
  }
}

TEST(TopkSearchOracleTest, AdmissionCheckReadsFewRowsOnReducedProfile) {
  // Almost every admission check is settled by the first row it reads or
  // by its cached cut; a check that rescans every coverable positive row
  // (the old folded cut) reads about one row per positive per check.
  const ScaleProfile profile = ScaleProfile::Reduced();
  std::string text;
  for (uint64_t row = 0; row < profile.rows; ++row) {
    AppendScaleRow(profile, row, &text);
  }
  auto table_or = StreamReader::ParseItemData(text);
  ASSERT_TRUE(table_or.ok()) << table_or.status().ToString();
  const StreamedTable& table = table_or.value();
  uint64_t positives = 0;
  for (ClassLabel label : table.labels()) positives += label == 1 ? 1 : 0;

  ShardPlanOptions plan_opt;
  plan_opt.k = 3;
  plan_opt.min_support = profile.SuggestedMinSupport();
  plan_opt.shard_count = 1;
  auto merged_or = MineShardedTopkRGS(table.View(), 1, plan_opt,
                                      ShardMineOptions{}, nullptr);
  ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
  const MinerStats& stats = merged_or.value().stats;
  ASSERT_FALSE(stats.timed_out);
  EXPECT_GT(stats.cut_rows_scanned, 0u);
  EXPECT_LT(stats.cut_rows_scanned, 10 * positives)
      << positives << " positive rows";
}

TEST(TopkSearchOracleTest, ThreadsSettingChangesNothing) {
  // TopkMinerOptions::threads is read by nothing; every setting must give
  // the threads = 1 result bit for bit, down to the group contents.
  const DiscreteDataset data = RandomDataset(21, 40, 44, 0.45);
  TopkMinerOptions opt;
  opt.k = 6;
  opt.min_support = 1;
  opt.threads = 1;
  const TopkResult reference = MineTopkRGS(data, 1, opt);
  ASSERT_FALSE(reference.stats.timed_out);
  for (uint32_t threads : {0u, 8u}) {
    opt.threads = threads;
    const TopkResult got = MineTopkRGS(data, 1, opt);
    const std::string context = "threads " + std::to_string(threads);
    EXPECT_EQ(got.effective_min_support, reference.effective_min_support)
        << context;
    ASSERT_EQ(got.per_row.size(), reference.per_row.size()) << context;
    for (size_t r = 0; r < got.per_row.size(); ++r) {
      ASSERT_EQ(got.per_row[r].size(), reference.per_row[r].size())
          << context << " row " << r;
      for (size_t i = 0; i < got.per_row[r].size(); ++i) {
        const RuleGroup& a = *got.per_row[r][i];
        const RuleGroup& b = *reference.per_row[r][i];
        const std::string at = context + " row " + std::to_string(r) +
                               " rank " + std::to_string(i);
        EXPECT_EQ(a.antecedent, b.antecedent) << at;
        EXPECT_EQ(a.consequent, b.consequent) << at;
        EXPECT_EQ(a.support, b.support) << at;
        EXPECT_EQ(a.antecedent_support, b.antecedent_support) << at;
        EXPECT_EQ(a.row_support, b.row_support) << at;
      }
    }
  }
}

}  // namespace
}  // namespace topkrgs
