#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "mine/miner_common.h"
#include "mine/topk_miner.h"
#include "scale/shard_miner.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "scale/topk_merge.h"
#include "synth/scale_profile.h"
#include "test_util.h"
#include "util/bitset.h"
#include "util/random.h"

namespace topkrgs {
namespace {

/// The oracle of DESIGN.md §14: sharded mining must be bit-identical to
/// single-shot MineTopkRGS on the materialized dataset, for ANY shard
/// count and thread count. These tests drive both engines over the same
/// tables and compare per-row lists group-for-group, plus the digest the
/// bench gates on.

StreamedTable TableFromText(const std::string& text) {
  auto table_or = StreamReader::ParseItemData(text);
  EXPECT_TRUE(table_or.ok()) << table_or.status().ToString();
  return std::move(table_or).value();
}

StreamedTable TableFromProfile(const ScaleProfile& profile) {
  std::string text;
  for (uint64_t row = 0; row < profile.rows; ++row) {
    AppendScaleRow(profile, row, &text);
  }
  return TableFromText(text);
}

/// The item-data text of an in-memory dataset, parsed over its own item
/// universe.
StreamedTable TableFromDataset(const DiscreteDataset& data) {
  std::string text;
  for (RowId r = 0; r < data.num_rows(); ++r) {
    text += std::to_string(data.label(r)) + "\t";
    const char* sep = "";
    data.row_bitset(r).ForEach([&](size_t item) {
      text += sep + std::to_string(item);
      sep = " ";
    });
    text += "\n";
  }
  StreamReader::Options options;
  options.num_items = data.num_items();
  auto table_or = StreamReader::ParseItemData(text, options);
  EXPECT_TRUE(table_or.ok()) << table_or.status().ToString();
  return std::move(table_or).value();
}

TopkResult SingleShot(const TransposedView& view, ClassLabel consequent,
                      uint32_t k, uint32_t minsup) {
  const DiscreteDataset data = MaterializeDataset(view);
  TopkMinerOptions opt;
  opt.k = k;
  opt.min_support = minsup;
  return MineTopkRGS(data, consequent, opt);
}

void ExpectIdentical(const TopkResult& oracle, const MergedTopk& merged,
                     const std::string& context) {
  EXPECT_EQ(oracle.effective_min_support, merged.effective_min_support)
      << context;
  ASSERT_EQ(oracle.per_row.size(), merged.per_row.size()) << context;
  for (size_t r = 0; r < oracle.per_row.size(); ++r) {
    const auto& la = oracle.per_row[r];
    const auto& lb = merged.per_row[r];
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
  EXPECT_EQ(TopkDigest(oracle.per_row, oracle.effective_min_support),
            TopkDigest(merged.per_row, merged.effective_min_support))
      << context;
}

/// Sweeps shard counts × thread counts over one table and compares every
/// run against the single-shot oracle.
void CheckShardInvariance(const TransposedView& view, ClassLabel consequent,
                          uint32_t k, uint32_t minsup,
                          const std::vector<uint32_t>& shard_counts,
                          const std::vector<uint32_t>& thread_counts,
                          const std::string& context) {
  const TopkResult oracle = SingleShot(view, consequent, k, minsup);
  for (const uint32_t shards : shard_counts) {
    for (const uint32_t threads : thread_counts) {
      ShardPlanOptions plan_opt;
      plan_opt.k = k;
      plan_opt.min_support = minsup;
      plan_opt.shard_count = shards;
      ShardMineOptions mine_opt;
      mine_opt.threads = threads;
      ShardPlan plan;
      auto merged_or =
          MineShardedTopkRGS(view, consequent, plan_opt, mine_opt, &plan);
      ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
      ExpectIdentical(oracle, merged_or.value(),
                      context + " shards=" + std::to_string(shards) +
                          " threads=" + std::to_string(threads) +
                          " planned=" + std::to_string(plan.shards.size()));
    }
  }
}

/// The merge takes the seeds, the root group and the seed closures from
/// shard 0's lists instead of re-deriving them. Asserts the single-shot
/// lists hold the root group (antecedent = the frequent set) and a
/// seed-derived group (row support = one item's full posting list), and
/// that the plan really splits, so the oracle comparison covers both.
void ExpectRootAndSeedListed(const TransposedView& view, ClassLabel consequent,
                             uint32_t k, uint32_t minsup) {
  const TopkResult oracle = SingleShot(view, consequent, k, minsup);
  ShardPlanOptions plan_opt;
  plan_opt.k = k;
  plan_opt.min_support = minsup;
  plan_opt.shard_count = view.num_rows;
  auto plan_or = PlanShards(view, consequent, plan_opt);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  const ShardPlan& plan = plan_or.value();
  EXPECT_GE(plan.shards.size(), 2u);

  std::vector<Bitset> postings;
  plan.frequent.ForEach([&](size_t item) {
    Bitset rows(view.num_rows);
    const uint32_t* ids = view.rows_of(static_cast<uint32_t>(item));
    for (size_t i = 0; i < view.rows_count(static_cast<uint32_t>(item)); ++i) {
      rows.Set(ids[i]);
    }
    postings.push_back(std::move(rows));
  });
  bool root = false;
  bool seed = false;
  for (const auto& list : oracle.per_row) {
    for (const RuleGroupPtr& group : list) {
      if (group->antecedent == plan.frequent) root = true;
      for (const Bitset& rows : postings) {
        if (group->row_support == rows) seed = true;
      }
    }
  }
  EXPECT_TRUE(root) << "no list holds the root group";
  EXPECT_TRUE(seed) << "no list holds a seed-derived group";
}

/// Three single-item patterns with IDENTICAL significance (support 6,
/// confidence 6/7) all covering the two shared rows, k=2: the root group
/// (2, 2) takes the first slot there, so the three tie for the k-th. The
/// tie discipline must keep the canonically-earliest in every shard
/// split, which is exactly where a merge with the wrong tie order breaks.
std::string TieSaturatedText() {
  std::string text;
  text += "1\t0 1 2\n";  // rows 0-1: all three patterns
  text += "1\t0 1 2\n";
  for (int i = 0; i < 4; ++i) text += "1\t0\n";  // rows 2-5: pattern 0
  for (int i = 0; i < 4; ++i) text += "1\t1\n";  // rows 6-9: pattern 1
  for (int i = 0; i < 4; ++i) text += "1\t2\n";  // rows 10-13: pattern 2
  text += "0\t0\n";  // negatives: one per pattern
  text += "0\t1\n";
  text += "0\t2\n";
  return text;
}

TEST(ShardMergeTest, TieSaturatedKthSlot) {
  const StreamedTable table = TableFromText(TieSaturatedText());

  // Sanity: on the shared rows the (2, 2) root group outranks the three
  // (6, 7) groups, which tie for the second slot of k=2.
  const TopkResult oracle = SingleShot(table.View(), 1, 2, 2);
  ASSERT_EQ(oracle.per_row[0].size(), 2u);
  EXPECT_EQ(oracle.per_row[0][0]->support, 2u);
  EXPECT_EQ(oracle.per_row[0][1]->support, 6u);
  EXPECT_EQ(oracle.per_row[0][1]->antecedent_support, 7u);
  ExpectRootAndSeedListed(table.View(), 1, 2, 2);

  CheckShardInvariance(table.View(), 1, 2, 2, {1, 2, 3, 7, 14, 16}, {1},
                       "tie-saturated");
}

TEST(ShardMergeTest, MicroProfileAcrossShardAndThreadCounts) {
  const ScaleProfile profile = ScaleProfile::Micro();
  const StreamedTable table = TableFromProfile(profile);
  CheckShardInvariance(table.View(), 1, 3, profile.SuggestedMinSupport(),
                       {1, 2, 7, 16}, {1, 8}, "micro profile");
}

/// Distinct k and consequent: the merge must reconstruct the OTHER class's
/// seeds and root correctly too.
TEST(ShardMergeTest, MicroProfileNegativeClassConsequent) {
  const ScaleProfile profile = ScaleProfile::Micro();
  const StreamedTable table = TableFromProfile(profile);
  CheckShardInvariance(table.View(), 0, 2, profile.SuggestedMinSupport(),
                       {1, 3, 16}, {1}, "micro profile class 0");
}

/// A dataset where two rows contain every frequent item: the earliest
/// absorbed row truncates the plan (later shards are provably inert), and
/// the absorbing shard takes unlimited fan-out. Output must not change.
std::string AbsorbedRowText() {
  std::string text;
  text += "1\t0 1 2 3\n";  // rows 0-1 contain every (frequent) item
  text += "1\t0 1 2 3\n";
  text += "1\t0 1\n";
  text += "1\t0 1\n";
  text += "1\t2 3\n";
  text += "1\t2 3\n";
  text += "1\t0 2\n";
  text += "0\t0 1\n";  // negatives: only the root group stays at 100%
  text += "0\t2 3\n";
  text += "0\t0 2\n";
  return text;
}

TEST(ShardMergeTest, AbsorbedRowTruncatesPlan) {
  const StreamedTable table = TableFromText(AbsorbedRowText());

  ShardPlanOptions plan_opt;
  plan_opt.k = 2;
  plan_opt.min_support = 2;
  plan_opt.shard_count = 6;
  auto plan_or = PlanShards(table.View(), 1, plan_opt);
  ASSERT_TRUE(plan_or.ok());
  // The absorbed rows have the maximum weight, so they sort LAST among
  // the positives: every shard up to the first of them survives, and the
  // one holding it gets unlimited fan-out.
  ASSERT_FALSE(plan_or.value().shards.empty());
  EXPECT_EQ(plan_or.value().shards.back().first_level_end, UINT32_MAX);
  EXPECT_EQ(plan_or.value().shards.back().end_pos, plan_or.value().positives);
  ExpectRootAndSeedListed(table.View(), 1, 2, 2);

  CheckShardInvariance(table.View(), 1, 2, 2, {1, 2, 3, 6}, {1},
                       "absorbed row");
}

/// Degenerate shapes: no frequent items (minsup too high) and a dataset
/// with a single positive row must survive any shard count.
TEST(ShardMergeTest, DegenerateShapes) {
  const StreamedTable sparse =
      TableFromText("1\t0\n1\t1\n1\t2\n0\t3\n");  // every item support 1
  CheckShardInvariance(sparse.View(), 1, 2, 2, {1, 2, 3}, {1},
                       "no frequent items");

  const StreamedTable single = TableFromText("1\t0 1\n0\t0\n0\t2\n");
  CheckShardInvariance(single.View(), 1, 2, 1, {1, 2}, {1},
                       "single positive row");
}

/// 30 positives and 15 negatives over 10 items only positives hold and 6
/// shared ones, each present with probability 0.6. Every group of the
/// class-pure items has confidence 100%, so the per-row lists fill with
/// 100% groups early and the dynamic minsup raise fires inside later
/// shards too, not only in shard 0.
std::string ClassPureText() {
  Rng rng(1);
  std::string text;
  for (int r = 0; r < 45; ++r) {
    const bool positive = r < 30;
    text += positive ? "1\t" : "0\t";
    const char* sep = "";
    for (int item = 0; item < 16; ++item) {
      if (item < 10 && !positive) continue;
      if (rng.NextBool(0.6)) {
        text += sep + std::to_string(item);
        sep = " ";
      }
    }
    text += "\n";
  }
  return text;
}

TEST(ShardMergeTest, ClassPureItemsAcrossShardAndThreadCounts) {
  const StreamedTable table = TableFromText(ClassPureText());
  CheckShardInvariance(table.View(), 1, 1, 2, {1, 2, 3, 7, 14, 16}, {1, 8},
                       "class-pure items");
}

/// The planner's order and frequent set, computed from CSR postings, must
/// equal FrequentItems and the order the miner reads from the index of the
/// materialized dataset exactly — stable tie order included (the
/// tie-saturated rows 2-13 all weigh one frequent item). Shards mine the
/// plan's order by construction (ProjectPlanItems); this keeps it the
/// order a single-shot search uses.
void ExpectPlanMatchesMinerOrder(const TransposedView& view,
                                 ClassLabel consequent, uint32_t minsup,
                                 const std::string& context) {
  ShardPlanOptions plan_opt;
  plan_opt.min_support = minsup;
  auto plan_or = PlanShards(view, consequent, plan_opt);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  const ShardPlan& plan = plan_or.value();
  const DiscreteDataset data = MaterializeDataset(view);
  const Bitset frequent =
      FrequentItems(data, consequent, plan.initial_min_support);
  EXPECT_EQ(plan.frequent, frequent) << context;
  const FrequentItemIndex index(data, consequent, frequent);
  EXPECT_EQ(plan.order, index.order()) << context;
}

TEST(ShardMergeTest, PlanOrderIsTheMinersOrder) {
  const StreamedTable tie = TableFromText(TieSaturatedText());
  ExpectPlanMatchesMinerOrder(tie.View(), 1, 2, "tie-saturated");
  ExpectPlanMatchesMinerOrder(tie.View(), 0, 1, "tie-saturated class 0");
  const StreamedTable absorbed = TableFromText(AbsorbedRowText());
  ExpectPlanMatchesMinerOrder(absorbed.View(), 1, 2, "absorbed row");
  const StreamedTable pure = TableFromText(ClassPureText());
  ExpectPlanMatchesMinerOrder(pure.View(), 1, 2, "class-pure items");
  const ScaleProfile profile = ScaleProfile::Micro();
  const StreamedTable micro = TableFromProfile(profile);
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    ExpectPlanMatchesMinerOrder(micro.View(), cls,
                                profile.SuggestedMinSupport(),
                                "micro cls=" + std::to_string(int{cls}));
  }
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const StreamedTable random = TableFromDataset(
        testing_util::RandomDataset(seed, 10, 12, 0.4));
    for (uint32_t minsup : {1u, 2u, 3u}) {
      ExpectPlanMatchesMinerOrder(random.View(), 1, minsup,
                                  "random seed=" + std::to_string(seed));
    }
  }
}

/// Summed one-thread search counters across the shards of the class-pure
/// dataset. A shard scope that prunes less leaves the digest intact, so
/// the oracle cannot see it; these counters can. A minsup raise that still
/// waits on rows before the scope, for one, shows in cut_rows_scanned.
/// The values are the ones the per-shard suffix-dataset engine produced on
/// the same input. (freq_scans/postings_scans are left out: item supports
/// are full-dataset supports now, which moves the Step 10 method choice.)
TEST(ShardMergeTest, OneThreadCountersPerShardCount) {
  struct Expected {
    uint32_t shards;
    uint64_t nodes_visited;
    uint64_t pruned_bounds;
    uint64_t pruned_backward;
    uint64_t groups_emitted;
    uint64_t cut_rows_scanned;
  };
  const Expected expected[] = {
      {1, 159, 2708, 284, 0, 4415},
      {2, 336, 4393, 1126, 55, 10940},
      {4, 444, 6395, 1086, 49, 12868},
      {7, 759, 8948, 3214, 139, 30119},
  };
  const StreamedTable table = TableFromText(ClassPureText());
  for (const Expected& e : expected) {
    ShardPlanOptions plan_opt;
    plan_opt.k = 1;
    plan_opt.min_support = 2;
    plan_opt.shard_count = e.shards;
    ShardMineOptions mine_opt;
    mine_opt.threads = 1;
    auto merged_or = MineShardedTopkRGS(table.View(), 1, plan_opt, mine_opt);
    ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
    const MinerStats& stats = merged_or.value().stats;
    const std::string context = "shards=" + std::to_string(e.shards);
    EXPECT_EQ(stats.nodes_visited, e.nodes_visited) << context;
    EXPECT_EQ(stats.pruned_bounds, e.pruned_bounds) << context;
    EXPECT_EQ(stats.pruned_backward, e.pruned_backward) << context;
    EXPECT_EQ(stats.groups_emitted, e.groups_emitted) << context;
    EXPECT_EQ(stats.cut_rows_scanned, e.cut_rows_scanned) << context;
  }
}

/// Partition-and-merge oracle on a random grid (seed × k × minsup, both
/// consequents): splitting the row enumeration into shards and merging
/// them must match the single-shot row-enumeration miner at every shard
/// count from 1 to one shard per row.
class HybridOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, uint32_t>> {};

TEST_P(HybridOracleTest, MatchesRowEnumerationMiner) {
  const auto [seed, k, minsup] = GetParam();
  const DiscreteDataset data =
      testing_util::RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  const StreamedTable table = TableFromDataset(data);
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    CheckShardInvariance(table.View(), cls, k, minsup,
                         {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {1},
                         "seed=" + std::to_string(seed) +
                             " k=" + std::to_string(k) +
                             " minsup=" + std::to_string(minsup) +
                             " cls=" + std::to_string(int{cls}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridOracleTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Values(1u, 3u),
                       ::testing::Values(1u, 2u, 3u)));

/// A planned view for the two MineShard entry points below: random rows
/// over a small universe, cut into several shards.
struct PlannedView {
  StreamedTable table;
  ShardPlan plan;
};

PlannedView PlanRandomView(uint64_t seed, uint32_t shard_count) {
  PlannedView out;
  out.table = TableFromDataset(testing_util::RandomDataset(seed, 18, 14, 0.4));
  ShardPlanOptions plan_opt;
  plan_opt.k = 2;
  plan_opt.min_support = 2;
  plan_opt.shard_count = shard_count;
  auto plan_or = PlanShards(out.table.View(), 1, plan_opt);
  EXPECT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  out.plan = std::move(plan_or).value();
  return out;
}

TEST(ShardMergeTest, SuffixDatasetIsThePlanOrderSuffix) {
  const PlannedView planned = PlanRandomView(4, 4);
  const TransposedView view = planned.table.View();
  const ShardPlan& plan = planned.plan;
  ASSERT_GE(plan.shards.size(), 2u);
  const DiscreteDataset full = MaterializeDataset(view);
  for (uint32_t s = 0; s < plan.shards.size(); ++s) {
    const uint32_t begin = plan.shards[s].begin_pos;
    const DiscreteDataset suffix = BuildSuffixDataset(view, plan, s);
    const std::string context = "shard " + std::to_string(s);
    ASSERT_EQ(suffix.num_rows(), view.num_rows - begin) << context;
    EXPECT_EQ(suffix.num_items(), full.num_items()) << context;
    for (RowId l = 0; l < suffix.num_rows(); ++l) {
      const RowId row = plan.order[begin + l];
      EXPECT_EQ(suffix.row_bitset(l), full.row_bitset(row))
          << context << " suffix row " << l;
      EXPECT_EQ(suffix.label(l), full.label(row))
          << context << " suffix row " << l;
    }
  }
}

TEST(ShardMergeTest, MineShardFromViewMatchesMaterializedDataset) {
  const PlannedView planned = PlanRandomView(6, 3);
  const TransposedView view = planned.table.View();
  const ShardPlan& plan = planned.plan;
  ASSERT_GE(plan.shards.size(), 2u);
  const DiscreteDataset full = MaterializeDataset(view);
  const ShardMineOptions options;
  size_t groups = 0;
  for (uint32_t s = 0; s < plan.shards.size(); ++s) {
    const ShardResult a = MineShard(view, plan, s, options);
    const ShardResult b =
        MineShard(FrequentItemIndex(full, plan.consequent, plan.frequent), plan,
                  s, options);
    const std::string context = "shard " + std::to_string(s);
    EXPECT_EQ(a.shard_index, s) << context;
    EXPECT_EQ(b.shard_index, s) << context;
    ASSERT_EQ(a.per_pos.size(), b.per_pos.size()) << context;
    for (size_t i = 0; i < a.per_pos.size(); ++i) {
      ASSERT_EQ(a.per_pos[i].size(), b.per_pos[i].size())
          << context << " pos " << i;
      for (size_t j = 0; j < a.per_pos[i].size(); ++j) {
        const RuleGroup& ga = *a.per_pos[i][j];
        const RuleGroup& gb = *b.per_pos[i][j];
        EXPECT_EQ(ga.antecedent, gb.antecedent) << context << " pos " << i;
        EXPECT_EQ(ga.support, gb.support) << context << " pos " << i;
        EXPECT_EQ(ga.antecedent_support, gb.antecedent_support)
            << context << " pos " << i;
        EXPECT_EQ(ga.row_support, gb.row_support) << context << " pos " << i;
      }
      groups += a.per_pos[i].size();
    }
    EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << context;
    EXPECT_EQ(a.stats.pruned_bounds, b.stats.pruned_bounds) << context;
    EXPECT_EQ(a.stats.pruned_backward, b.stats.pruned_backward) << context;
    EXPECT_EQ(a.stats.groups_emitted, b.stats.groups_emitted) << context;
    EXPECT_EQ(a.stats.cut_rows_scanned, b.stats.cut_rows_scanned) << context;
    EXPECT_FALSE(a.stats.timed_out) << context;
  }
  EXPECT_GT(groups, 0u);
}

TEST(ShardMergeTest, PlanIndexIsTheDatasetProjection) {
  const PlannedView planned = PlanRandomView(8, 3);
  const TransposedView view = planned.table.View();
  const ShardPlan& plan = planned.plan;
  const DiscreteDataset full = MaterializeDataset(view);
  const FrequentItemIndex from_postings = ProjectPlanItems(view, plan);
  const FrequentItemIndex from_dataset(full, plan.consequent, plan.frequent);
  ASSERT_GT(from_postings.num_columns(), 0u);
  ASSERT_LT(from_postings.num_columns(), view.num_items);
  EXPECT_EQ(from_postings.universe(), view.num_items);
  ASSERT_EQ(from_postings.num_columns(), from_dataset.num_columns());
  ASSERT_EQ(from_postings.num_rows(), from_dataset.num_rows());
  EXPECT_EQ(from_postings.order(), plan.order);
  EXPECT_EQ(from_postings.order(), from_dataset.order());
  EXPECT_EQ(from_postings.supports(), from_dataset.supports());
  for (uint32_t c = 0; c < from_postings.num_columns(); ++c) {
    EXPECT_EQ(from_postings.item_id(c), from_dataset.item_id(c));
    EXPECT_EQ(from_postings.column(c), from_dataset.column(c));
  }
  for (RowId r = 0; r < from_postings.num_rows(); ++r) {
    EXPECT_EQ(from_postings.label(r), from_dataset.label(r));
    EXPECT_EQ(from_postings.row(r), from_dataset.row(r));
  }
}

/// ROADMAP's metamorphic property for the sharded path: columns that are
/// infrequent in the consequent class change no group, at any shard
/// count. The wider table's merged lists equal single-shot mining of the
/// original dataset, each antecedent lifted into the wider universe.
TEST(ShardMergeTest, InfrequentColumnsChangeNothing) {
  constexpr ClassLabel kConsequent = 1;
  constexpr uint32_t kK = 3;
  constexpr uint32_t kMinsup = 2;
  const DiscreteDataset data = testing_util::RandomDataset(12, 24, 30, 0.4);
  std::vector<ItemId> lift;
  const DiscreteDataset wide = testing_util::WithInfrequentColumns(
      data, kConsequent, kMinsup, 50, 12, &lift);
  TopkMinerOptions opt;
  opt.k = kK;
  opt.min_support = kMinsup;
  const TopkResult oracle = MineTopkRGS(data, kConsequent, opt);
  const StreamedTable table = TableFromDataset(wide);
  for (const uint32_t shards : {1u, 3u}) {
    ShardPlanOptions plan_opt;
    plan_opt.k = kK;
    plan_opt.min_support = kMinsup;
    plan_opt.shard_count = shards;
    ShardPlan plan;
    auto merged_or = MineShardedTopkRGS(table.View(), kConsequent, plan_opt,
                                        ShardMineOptions(), &plan);
    ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
    const MergedTopk& merged = merged_or.value();
    const std::string context = "shards=" + std::to_string(shards);
    EXPECT_EQ(plan.shards.size(), shards) << context;
    EXPECT_EQ(plan.frequent.Count(),
              FrequentItems(data, kConsequent, kMinsup).Count())
        << context;
    EXPECT_EQ(merged.effective_min_support, oracle.effective_min_support)
        << context;
    ASSERT_EQ(merged.per_row.size(), oracle.per_row.size()) << context;
    size_t groups = 0;
    for (RowId r = 0; r < data.num_rows(); ++r) {
      const auto& la = oracle.per_row[r];
      const auto& lb = merged.per_row[r];
      ASSERT_EQ(la.size(), lb.size()) << context << " row " << r;
      for (size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i]->support, lb[i]->support) << context << " row " << r;
        EXPECT_EQ(la[i]->antecedent_support, lb[i]->antecedent_support)
            << context << " row " << r;
        EXPECT_EQ(la[i]->row_support, lb[i]->row_support)
            << context << " row " << r;
        EXPECT_EQ(testing_util::LiftItems(la[i]->antecedent, lift,
                                          wide.num_items()),
                  lb[i]->antecedent)
            << context << " row " << r << " rank " << i;
      }
      groups += la.size();
    }
    EXPECT_GT(groups, 0u);
  }
}

/// Reduced profile end-to-end — minutes-scale work, so tier-1 skips it;
/// set TOPKRGS_SLOW_TESTS=1 (the ci.sh scale stage does) to run.
TEST(ShardMergeSlowTest, ReducedProfileAcrossShardCounts) {
  if (std::getenv("TOPKRGS_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "set TOPKRGS_SLOW_TESTS=1 to run the reduced profile";
  }
  const ScaleProfile profile = ScaleProfile::Reduced();
  const StreamedTable table = TableFromProfile(profile);
  CheckShardInvariance(table.View(), 1, 3, profile.SuggestedMinSupport(),
                       {1, 4, 9}, {1, 8}, "reduced profile");
}

}  // namespace
}  // namespace topkrgs
