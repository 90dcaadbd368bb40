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

/// Deep equality of two mining results: every per-row list must match
/// group-for-group (antecedent, supports, row support, order), along with
/// the derived threshold and the distinct-group ordering. This is the
/// contract that TopkMinerOptions::threads never changes a result.
void ExpectIdenticalResults(const TopkResult& a, const TopkResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.effective_min_support, b.effective_min_support) << context;
  ASSERT_EQ(a.per_row.size(), b.per_row.size()) << context;
  for (size_t r = 0; r < a.per_row.size(); ++r) {
    const auto& la = a.per_row[r];
    const auto& lb = b.per_row[r];
    ASSERT_EQ(la.size(), lb.size()) << context << " row " << r;
    for (size_t i = 0; i < la.size(); ++i) {
      const RuleGroup& ga = *la[i];
      const RuleGroup& gb = *lb[i];
      EXPECT_EQ(ga.antecedent, gb.antecedent)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.consequent, gb.consequent)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.support, gb.support)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.antecedent_support, gb.antecedent_support)
          << context << " row " << r << " rank " << i;
      EXPECT_EQ(ga.row_support, gb.row_support)
          << context << " row " << r << " rank " << i;
    }
  }
  const auto da = a.DistinctGroups();
  const auto db = b.DistinctGroups();
  ASSERT_EQ(da.size(), db.size()) << context;
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i]->antecedent, db[i]->antecedent) << context << " #" << i;
    EXPECT_EQ(da[i]->row_support, db[i]->row_support) << context << " #" << i;
  }
}

/// Mines `data` with every thread count in `thread_counts` and asserts all
/// runs reproduce the threads=1 result exactly.
void CheckThreadInvariance(const DiscreteDataset& data, ClassLabel consequent,
                           TopkMinerOptions opt, const std::string& context) {
  opt.threads = 1;
  const TopkResult reference = MineTopkRGS(data, consequent, opt);
  EXPECT_FALSE(reference.stats.timed_out) << context;
  for (uint32_t threads : {2u, 8u, 0u /* auto = hardware cores */}) {
    TopkMinerOptions par = opt;
    par.threads = threads;
    const TopkResult result = MineTopkRGS(data, consequent, par);
    ExpectIdenticalResults(reference, result,
                           context + " threads=" + std::to_string(threads));
  }
}

TEST(TopkParallelTest, DeterministicOnSyntheticPipelineData) {
  for (uint64_t seed : {7u, 19u}) {
    const GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(seed));
    const Pipeline pipeline = PreparePipeline(data.train, data.test);
    for (ClassLabel consequent : {0, 1}) {
      TopkMinerOptions opt;
      opt.k = 3;
      opt.min_support = 2;
      CheckThreadInvariance(pipeline.train, consequent, opt,
                            "tiny seed " + std::to_string(seed) + " class " +
                                std::to_string(consequent));
    }
  }
}

TEST(TopkParallelTest, DeterministicAcrossBackends) {
  // Step 10 counts per candidate on the narrow dataset and partly from
  // item postings on the wide one; either way, any thread count must
  // reproduce the serial lists.
  const DiscreteDataset narrow = RandomDataset(11, 28, 40, 0.35);
  const DiscreteDataset wide = testing_util::WideSparseDataset(11, 24, 640);
  for (const DiscreteDataset* data : {&narrow, &wide}) {
    TopkMinerOptions opt;
    opt.k = 4;
    opt.min_support = 2;
    CheckThreadInvariance(
        *data, 1, opt, std::to_string(data->num_items()) + " items");
  }
}

TEST(TopkParallelTest, DeterministicOverRandomDatasets) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const DiscreteDataset data = RandomDataset(seed, 24, 32, 0.4);
    for (uint32_t k : {1u, 2u, 5u}) {
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = 1 + static_cast<uint32_t>(seed % 3);
      CheckThreadInvariance(data, 1, opt,
                            "seed " + std::to_string(seed) + " k " +
                                std::to_string(k));
    }
  }
}

TEST(TopkParallelTest, DeterministicWithoutTopkPruningAblation) {
  // Each ablation switch makes the search visit other nodes; every thread
  // count must still reproduce the serial lists.
  const DiscreteDataset data = RandomDataset(3, 22, 30, 0.4);
  TopkMinerOptions opt;
  opt.k = 3;
  opt.min_support = 2;
  opt.use_topk_pruning = false;
  CheckThreadInvariance(data, 1, opt, "no-topk-pruning");

  opt.use_topk_pruning = true;
  opt.use_bound_pruning = false;
  CheckThreadInvariance(data, 1, opt, "no-bound-pruning");

  opt.use_bound_pruning = true;
  opt.seed_single_items = false;
  opt.dynamic_min_support = false;
  CheckThreadInvariance(data, 1, opt, "no-seeding-no-dynamic-minsup");
}

TEST(TopkParallelTest, ParallelResultMatchesOracle) {
  // The exhaustive oracle pins the miner at threads = 8 to the paper's
  // Definition 2.3 semantics, not merely to its own serial run.
  for (uint64_t seed : {2u, 5u}) {
    const DiscreteDataset data = RandomDataset(seed, 16, 18, 0.45);
    TopkMinerOptions opt;
    opt.k = 2;
    opt.min_support = 2;
    opt.threads = 8;
    const TopkResult fast = MineTopkRGS(data, 1, opt);
    const auto oracle = NaiveTopkRGS(data, 1, opt.min_support, opt.k);
    ASSERT_EQ(fast.per_row.size(), oracle.size());
    for (size_t r = 0; r < fast.per_row.size(); ++r) {
      EXPECT_EQ(SignificanceSeq(fast.per_row[r]),
                testing_util::SignificanceSeqValues(oracle[r]))
          << "seed " << seed << " row " << r;
    }
  }
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

TEST(TopkParallelTest, TieHeavyDatasetMatchesOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const DiscreteDataset data = TripledPositives(seed, 4, 6, 14);
    for (uint32_t k : {1u, 2u, 3u}) {
      const auto oracle = NaiveTopkRGS(data, 1, 2, k);
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = 2;
        opt.threads = 1;
      const TopkResult serial = MineTopkRGS(data, 1, opt);
      for (uint32_t threads : {1u, 4u, 8u}) {
        const std::string context = "seed " + std::to_string(seed) + " k " +
                                    std::to_string(k) + " threads " +
                                    std::to_string(threads);
        opt.threads = threads;
        const TopkResult got = MineTopkRGS(data, 1, opt);
        ASSERT_EQ(got.per_row.size(), oracle.size()) << context;
        for (size_t r = 0; r < oracle.size(); ++r) {
          EXPECT_EQ(SignificanceSeq(got.per_row[r]),
                    testing_util::SignificanceSeqValues(oracle[r]))
              << context << " row " << r;
        }
        ExpectIdenticalResults(serial, got, context);
      }
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
        CheckThreadInvariance(data, 1, opt,
                            "tripled seed " + std::to_string(seed) + " k " +
                                std::to_string(k));
    }
  }
}

TEST(TopkParallelTest, AdmissionCheckReadsFewRowsOnReducedProfile) {
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
  ShardMineOptions mine_opt;
  mine_opt.threads = 1;
  auto merged_or =
      MineShardedTopkRGS(table.View(), 1, plan_opt, mine_opt, nullptr);
  ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
  const MinerStats& stats = merged_or.value().stats;
  ASSERT_FALSE(stats.timed_out);
  EXPECT_GT(stats.cut_rows_scanned, 0u);
  EXPECT_LT(stats.cut_rows_scanned, 10 * positives)
      << positives << " positive rows";
}

TEST(TopkParallelTest, DeterministicUnderHeavyStealing) {
  // A wide, deep search at threads = 8 must reproduce the threads = 1
  // result bit for bit. k above the per-row group count keeps the top-k
  // thresholds loose, so many subtrees survive and the search is large.
  for (uint64_t seed : {21u, 42u}) {
    const DiscreteDataset data = RandomDataset(seed, 40, 44, 0.45);
    TopkMinerOptions opt;
    opt.k = 6;
    opt.min_support = 1;
    opt.threads = 1;
    const TopkResult reference = MineTopkRGS(data, 1, opt);
    TopkMinerOptions par = opt;
    par.threads = 8;
    const TopkResult stolen = MineTopkRGS(data, 1, par);
    ExpectIdenticalResults(reference, stolen,
                           "heavy-steal seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace topkrgs
