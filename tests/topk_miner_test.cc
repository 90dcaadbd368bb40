#include "mine/topk_miner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mine/miner_common.h"
#include "mine/naive_miner.h"
#include "scale/topk_merge.h"
#include "test_util.h"
#include "util/bitset.h"
#include "util/rowset.h"

namespace topkrgs {
namespace {

using testing_util::LiftItems;
using testing_util::RandomDataset;
using testing_util::SignificanceSeq;
using testing_util::SignificanceSeqValues;
using testing_util::WideSparseDataset;
using testing_util::WithInfrequentColumns;

Bitset NamedItems(const DiscreteDataset& d, const std::string& names) {
  Bitset b(d.num_items());
  for (char c : names) b.Set(RunningExampleItem(c));
  return b;
}

TEST(TopkMinerTest, RunningExampleTop1ClassC) {
  // Example 1.1 / 3.1: minsup = 2, k = 1, consequent C.
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 2;
  TopkResult result = MineTopkRGS(d, 1, opt);

  // r1 and r2: {abc -> C}, confidence 100%, support 2.
  for (RowId r : {0u, 1u}) {
    ASSERT_EQ(result.per_row[r].size(), 1u) << r;
    const RuleGroup& g = *result.per_row[r][0];
    EXPECT_EQ(g.antecedent, NamedItems(d, "abc"));
    EXPECT_EQ(g.support, 2u);
    EXPECT_EQ(g.antecedent_support, 2u);
  }
  // r3: the paper's Example 1.1 names {cde -> C} (confidence 66.7%), but by
  // its own Definition 2.2 the rule group {c -> C} (rows {1,2,3,4},
  // confidence 75%, support 3) covers r3 and is strictly more significant.
  // The exhaustive oracle (NaiveTopkRGS) agrees; we follow the definition.
  ASSERT_EQ(result.per_row[2].size(), 1u);
  const RuleGroup& g3 = *result.per_row[2][0];
  EXPECT_EQ(g3.antecedent, NamedItems(d, "c"));
  EXPECT_EQ(g3.support, 3u);
  EXPECT_EQ(g3.antecedent_support, 4u);
  // Rows of the other class have no lists.
  EXPECT_TRUE(result.per_row[3].empty());
  EXPECT_TRUE(result.per_row[4].empty());
}

TEST(TopkMinerTest, RunningExampleTop1ClassNotC) {
  // Example 1.1: top-1 for r4, r5 is {fge -> ¬C}, confidence 66.7%, sup 2.
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 2;
  TopkResult result = MineTopkRGS(d, 0, opt);
  for (RowId r : {3u, 4u}) {
    ASSERT_EQ(result.per_row[r].size(), 1u) << r;
    const RuleGroup& g = *result.per_row[r][0];
    EXPECT_EQ(g.antecedent, NamedItems(d, "efg"));
    EXPECT_EQ(g.support, 2u);
    EXPECT_EQ(g.antecedent_support, 3u);
  }
}

TEST(TopkMinerTest, BothBackendsAgreeOnRunningExample) {
  // Step 10 counts freq per candidate or from item postings, whichever is
  // cheaper at the node (CountFreqFromPostings). Widening the running
  // example's item universe from 10 to 1024 items (the new ones unused)
  // shifts that choice towards postings; the groups must not move.
  const DiscreteDataset d = MakeRunningExampleDataset();
  std::vector<std::vector<ItemId>> rows;
  for (RowId r = 0; r < d.num_rows(); ++r) {
    rows.push_back(d.row_bitset(r).ToVector());
  }
  std::vector<ClassLabel> labels;
  for (RowId r = 0; r < d.num_rows(); ++r) labels.push_back(d.label(r));
  const DiscreteDataset wide(1024, std::move(rows), std::move(labels));
  uint64_t narrow_postings = 0;
  uint64_t wide_postings = 0;
  for (uint32_t k : {1u, 2u, 3u}) {
    TopkMinerOptions opt;
    opt.k = k;
    opt.min_support = 1;
    TopkResult a = MineTopkRGS(d, 1, opt);
    TopkResult b = MineTopkRGS(wide, 1, opt);
    narrow_postings += a.stats.postings_scans;
    wide_postings += b.stats.postings_scans;
    for (RowId r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(a.per_row[r].size(), b.per_row[r].size());
      for (size_t i = 0; i < a.per_row[r].size(); ++i) {
        EXPECT_EQ(a.per_row[r][i]->antecedent.ToVector(),
                  b.per_row[r][i]->antecedent.ToVector())
            << "k=" << k << " row=" << r << " rank=" << i;
        EXPECT_EQ(a.per_row[r][i]->row_support, b.per_row[r][i]->row_support)
            << "k=" << k << " row=" << r << " rank=" << i;
      }
    }
  }
  EXPECT_GT(wide_postings, narrow_postings);
}

/// Validates every invariant a top-k result must satisfy against the data.
void ValidateResult(const DiscreteDataset& d, ClassLabel cls, uint32_t minsup,
                    uint32_t k, const TopkResult& result) {
  const Bitset frequent = FrequentItems(d, cls, minsup);
  const Bitset class_rows = d.ClassRowset(cls);
  ASSERT_EQ(result.per_row.size(), d.num_rows());
  for (RowId r = 0; r < d.num_rows(); ++r) {
    const auto& list = result.per_row[r];
    if (d.label(r) != cls) {
      EXPECT_TRUE(list.empty());
      continue;
    }
    EXPECT_LE(list.size(), k);
    for (size_t i = 0; i < list.size(); ++i) {
      const RuleGroup& g = *list[i];
      // Covers the row and meets minsup.
      EXPECT_TRUE(g.row_support.Test(r));
      EXPECT_TRUE(g.antecedent.IsSubsetOf(d.row_bitset(r)));
      EXPECT_GE(g.support, minsup);
      // Counts are consistent.
      EXPECT_EQ(g.antecedent_support, g.row_support.Count());
      EXPECT_EQ(g.support, g.row_support.IntersectCount(class_rows));
      // The group is closed: antecedent is exactly I(R) over frequent
      // items, and R is exactly R(antecedent).
      EXPECT_EQ(d.ItemSupportSet(g.antecedent), g.row_support);
      Bitset closure = d.RowSupportSet(g.row_support);
      closure.IntersectWith(frequent);
      EXPECT_EQ(g.antecedent, closure);
      // List is ordered by non-increasing significance, without duplicates.
      if (i > 0) {
        const RuleGroup& prev = *list[i - 1];
        EXPECT_GE(CompareSignificance(prev.support, prev.antecedent_support,
                                      g.support, g.antecedent_support),
                  0);
        for (size_t j = 0; j < i; ++j) {
          EXPECT_FALSE(list[j]->row_support == g.row_support)
              << "duplicate group in list";
        }
      }
    }
  }
}

class TopkOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, uint32_t>> {};

TEST_P(TopkOracleTest, MatchesNaiveEnumeration) {
  const auto [seed, k, minsup] = GetParam();
  DiscreteDataset d =
      RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.35 + 0.03 * (seed % 5));
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    const auto oracle = NaiveTopkRGS(d, cls, minsup, k);
    TopkMinerOptions opt;
    opt.k = k;
    opt.min_support = minsup;
    TopkResult result = MineTopkRGS(d, cls, opt);
    ValidateResult(d, cls, minsup, k, result);
    for (RowId r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(SignificanceSeq(result.per_row[r]),
                SignificanceSeqValues(oracle[r]))
          << "seed=" << seed << " k=" << k << " minsup=" << minsup
          << " cls=" << int(cls) << " row=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopkOracleTest,
    ::testing::Combine(::testing::Range(0, 12),        // seeds
                       ::testing::Values(1u, 2u, 4u),  // k
                       ::testing::Values(1u, 2u, 3u)   // minsup
                       ));

TEST(TopkMinerTest, WideSparseMatchesOracleOnBothCountPaths) {
  // Every other oracle sweep stays at <= 64 items, where I(X) is never a
  // sparse RowSet; this one is wide enough that Step 10 takes both sides
  // of CountFreqFromPostings, at threads = 1 and 4.
  uint64_t scans = 0;
  uint64_t postings = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const DiscreteDataset d = WideSparseDataset(seed, 13, 640);
    for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
      for (uint32_t k : {1u, 3u}) {
        for (uint32_t minsup : {1u, 2u}) {
          const auto oracle = NaiveTopkRGS(d, cls, minsup, k);
          for (uint32_t threads : {1u, 4u}) {
            TopkMinerOptions opt;
            opt.k = k;
            opt.min_support = minsup;
            opt.threads = threads;
            const TopkResult result = MineTopkRGS(d, cls, opt);
            scans += result.stats.freq_scans;
            postings += result.stats.postings_scans;
            ValidateResult(d, cls, minsup, k, result);
            for (RowId r = 0; r < d.num_rows(); ++r) {
              ASSERT_EQ(SignificanceSeq(result.per_row[r]),
                        SignificanceSeqValues(oracle[r]))
                  << "seed=" << seed << " cls=" << int(cls) << " k=" << k
                  << " minsup=" << minsup << " threads=" << threads
                  << " row=" << r;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(postings, 0u);        // counted from item postings
  EXPECT_LT(postings, scans);     // and per candidate
}

TEST(TopkMinerTest, CountFreqFromPostingsPicksTheCheaperScan) {
  // 100 candidates against a 3-item sparse I(X): 300 probes per candidate
  // vs 2 * (support 30 + 3 items * 1 row word) = 66 for the postings walk.
  EXPECT_TRUE(CountFreqFromPostings(100, 3, true, 16, 30, 1));
  // Few candidates: per candidate wins.
  EXPECT_FALSE(CountFreqFromPostings(5, 3, true, 16, 30, 1));
  // A dense I(X) costs its item-universe words per candidate.
  EXPECT_FALSE(CountFreqFromPostings(100, 600, false, 16, 3000, 1));
  EXPECT_TRUE(CountFreqFromPostings(100, 20, false, 16, 40, 1));
  // Wide row bitmaps make each posting walk expensive.
  EXPECT_FALSE(CountFreqFromPostings(100, 3, true, 16, 30, 100));
  // Monotone in support_sum: the zero-support bound is never stricter.
  EXPECT_TRUE(CountFreqFromPostings(100, 3, true, 16, 0, 1));
}

class TopkAblationTest : public ::testing::TestWithParam<int> {};

TEST_P(TopkAblationTest, PruningTogglesPreserveResults) {
  const int seed = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 9, 11, 0.4);
  TopkMinerOptions base;
  base.k = 3;
  base.min_support = 2;
  const TopkResult expected = MineTopkRGS(d, 1, base);

  std::vector<TopkMinerOptions> variants;
  {
    TopkMinerOptions o = base;
    o.use_topk_pruning = false;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.use_bound_pruning = false;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.use_backward_pruning = false;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.seed_single_items = false;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.dynamic_min_support = false;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.use_topk_pruning = o.use_bound_pruning = o.use_backward_pruning = false;
    o.seed_single_items = o.dynamic_min_support = false;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.row_order = TopkMinerOptions::RowOrder::kClassDominant;
    variants.push_back(o);
  }
  {
    TopkMinerOptions o = base;
    o.row_order = TopkMinerOptions::RowOrder::kNatural;
    variants.push_back(o);
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    const TopkResult got = MineTopkRGS(d, 1, variants[v]);
    for (RowId r = 0; r < d.num_rows(); ++r) {
      EXPECT_EQ(SignificanceSeq(got.per_row[r]),
                SignificanceSeq(expected.per_row[r]))
          << "variant=" << v << " seed=" << seed << " row=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopkAblationTest, ::testing::Range(0, 10));

TEST(TopkMinerTest, PruningReducesSearchNodes) {
  DiscreteDataset d = RandomDataset(3, 12, 14, 0.5);
  TopkMinerOptions with;
  with.k = 1;
  with.min_support = 2;
  TopkMinerOptions without = with;
  without.use_topk_pruning = false;
  without.seed_single_items = false;
  const auto a = MineTopkRGS(d, 1, with);
  const auto b = MineTopkRGS(d, 1, without);
  EXPECT_LT(a.stats.nodes_visited, b.stats.nodes_visited);
}

TEST(TopkMinerTest, DynamicMinsupNeverDecreases) {
  DiscreteDataset d = RandomDataset(5, 10, 12, 0.5);
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 2;
  const TopkResult result = MineTopkRGS(d, 1, opt);
  EXPECT_GE(result.effective_min_support, opt.min_support);
}

TEST(TopkMinerTest, DeadlineSetsTimeoutFlag) {
  DiscreteDataset d = RandomDataset(7, 14, 16, 0.6);
  TopkMinerOptions opt;
  opt.k = 8;
  opt.min_support = 1;
  opt.use_topk_pruning = false;
  opt.seed_single_items = false;
  opt.deadline = Deadline(1e-9);
  const TopkResult result = MineTopkRGS(d, 1, opt);
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(TopkMinerTest, DistinctGroupsDeduplicates) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 2;
  TopkResult result = MineTopkRGS(d, 1, opt);
  // abc (shared by r1, r2) and cde (r3): exactly 2 distinct groups.
  EXPECT_EQ(result.DistinctGroups().size(), 2u);
  EXPECT_EQ(result.GroupsAtRank(1).size(), 2u);
}

TEST(TopkMinerTest, DistinctGroupsHashSaltInvariant) {
  // The dedup collapse must be a function of the data alone, never of the
  // bucketing hash: salting the rowset hash reshuffles every bucket, and
  // the result — content AND order — must not move. This is the
  // regression test behind the determinism lint's no-bucket-order rule
  // (DESIGN.md §12); it fails on any dedup rewrite that lets hash or
  // bucket layout leak into the collapse order.
  DiscreteDataset d = RandomDataset(12, 24, 20, 0.5);
  TopkMinerOptions opt;
  opt.k = 4;
  opt.min_support = 2;
  TopkResult result = MineTopkRGS(d, 1, opt);
  const std::vector<RuleGroupPtr> baseline = result.DistinctGroups();
  ASSERT_FALSE(baseline.empty());
  const std::vector<RuleGroupPtr> rank1 = result.GroupsAtRank(1);
  for (uint64_t salt :
       {uint64_t{1}, uint64_t{0x9e3779b97f4a7c15ULL}, uint64_t{0xdeadbeefULL}}) {
    const auto salted = result.DistinctGroups(salt);
    ASSERT_EQ(salted.size(), baseline.size()) << "salt " << salt;
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(salted[i], baseline[i])
          << "salt " << salt << " moved element " << i;
    }
    const auto salted_rank1 = result.GroupsAtRank(1, salt);
    ASSERT_EQ(salted_rank1.size(), rank1.size()) << "salt " << salt;
    for (size_t i = 0; i < rank1.size(); ++i) {
      EXPECT_EQ(salted_rank1[i], rank1[i])
          << "salt " << salt << " moved rank-1 element " << i;
    }
  }
}

TEST(TopkMinerTest, GroupsAtRankBeyondListsIsEmpty) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 2;
  opt.min_support = 2;
  TopkResult result = MineTopkRGS(d, 1, opt);
  // No row can have a 3rd group when k = 2.
  EXPECT_TRUE(result.GroupsAtRank(3).empty());
}

TEST(TopkMinerTest, MinsupAboveClassSizeYieldsEmptyLists) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TopkMinerOptions opt;
  opt.k = 1;
  opt.min_support = 10;
  TopkResult result = MineTopkRGS(d, 1, opt);
  for (const auto& list : result.per_row) EXPECT_TRUE(list.empty());
}

TEST(TopkMinerTest, SingleRowDataset) {
  DiscreteDataset d(3, {{0, 1, 2}}, {1});
  TopkMinerOptions opt;
  opt.k = 2;
  opt.min_support = 1;
  TopkResult result = MineTopkRGS(d, 1, opt);
  ASSERT_EQ(result.per_row[0].size(), 1u);
  EXPECT_EQ(result.per_row[0][0]->antecedent.Count(), 3u);
  EXPECT_EQ(result.per_row[0][0]->support, 1u);
}

TEST(TopkMinerTest, LargerKFindsSupersetOfSmallerK) {
  DiscreteDataset d = RandomDataset(11, 11, 13, 0.45);
  TopkMinerOptions opt1;
  opt1.k = 1;
  opt1.min_support = 1;
  TopkMinerOptions opt4 = opt1;
  opt4.k = 4;
  const TopkResult r1 = MineTopkRGS(d, 1, opt1);
  const TopkResult r4 = MineTopkRGS(d, 1, opt4);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    const auto s1 = SignificanceSeq(r1.per_row[r]);
    const auto s4 = SignificanceSeq(r4.per_row[r]);
    ASSERT_LE(s1.size(), s4.size());
    for (size_t i = 0; i < s1.size(); ++i) {
      EXPECT_EQ(s1[i], s4[i]) << "row " << r << " i " << i;
    }
  }
}

/// begin_pos and first_level_end are positions in the default ORD, which
/// the shard planner reproduces; any other row order would give them a
/// different meaning, so Validate rejects the combination.
TEST(TopkMinerTest, SearchCountersArePinned) {
  // The search itself, not just its output: the lists' digest and every
  // search counter, pinned to recorded values. Pruning order, the
  // admission check's cut cache and the dynamic minsup all move these
  // even where the lists come out the same. The narrow dataset counts
  // Step 10 per candidate; the wide one partly from item postings.
  struct Expected {
    const char* name;
    DiscreteDataset data;
    uint64_t digest;
    uint64_t nodes_visited;
    uint64_t pruned_bounds;
    uint64_t pruned_backward;
    uint64_t groups_emitted;
    uint64_t freq_scans;
    uint64_t postings_scans;
    uint64_t cut_rows_scanned;
  };
  const Expected expected[] = {
      {"narrow", RandomDataset(11, 28, 40, 0.35), 0x532e82fbf7e96e90ull, 187,
       1219, 345, 77, 159, 0, 2645},
      {"wide", WideSparseDataset(11, 24, 640), 0xa9ac8450b803a8b3ull, 41, 129,
       98, 27, 39, 17, 325},
  };
  for (const Expected& e : expected) {
    TopkMinerOptions opt;
    opt.k = 4;
    opt.min_support = 2;
    const TopkResult result = MineTopkRGS(e.data, 1, opt);
    const MinerStats& stats = result.stats;
    ASSERT_FALSE(stats.timed_out) << e.name;
    EXPECT_EQ(TopkDigest(result.per_row, result.effective_min_support),
              e.digest)
        << e.name;
    EXPECT_EQ(stats.nodes_visited, e.nodes_visited) << e.name;
    EXPECT_EQ(stats.pruned_bounds, e.pruned_bounds) << e.name;
    EXPECT_EQ(stats.pruned_backward, e.pruned_backward) << e.name;
    EXPECT_EQ(stats.groups_emitted, e.groups_emitted) << e.name;
    EXPECT_EQ(stats.freq_scans, e.freq_scans) << e.name;
    EXPECT_EQ(stats.postings_scans, e.postings_scans) << e.name;
    EXPECT_EQ(stats.cut_rows_scanned, e.cut_rows_scanned) << e.name;
  }
}

TEST(TopkMinerOptionsTest, ShardScopeRequiresTheDefaultRowOrder) {
  TopkMinerOptions options;
  options.begin_pos = 3;
  options.first_level_end = 5;
  EXPECT_TRUE(options.Validate().ok());
  for (const auto order : {TopkMinerOptions::RowOrder::kClassDominant,
                           TopkMinerOptions::RowOrder::kNatural}) {
    options.row_order = order;
    options.begin_pos = 3;
    options.first_level_end = UINT32_MAX;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
    options.begin_pos = 0;
    options.first_level_end = 5;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
    options.first_level_end = UINT32_MAX;
    EXPECT_TRUE(options.Validate().ok());
  }
}

TEST(FrequentItemIndexTest, ColumnsAndRowsMapToOriginalItems) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const DiscreteDataset d = RandomDataset(seed + 900, 12, 14, 0.35);
    const Bitset frequent = FrequentItems(d, 1, 3);
    const FrequentItemIndex index(d, 1, frequent);
    ASSERT_EQ(index.universe(), d.num_items());
    ASSERT_EQ(index.consequent(), 1);
    ASSERT_EQ(index.num_rows(), d.num_rows());
    ASSERT_EQ(index.num_columns(), frequent.Count());
    for (uint32_t c = 0; c < index.num_columns(); ++c) {
      const ItemId item = index.item_id(c);
      ASSERT_TRUE(frequent.Test(item)) << "seed=" << seed << " column=" << c;
      if (c > 0) {
        ASSERT_LT(index.item_id(c - 1), item);
      }
      // Each column's rows are the rows of its original item.
      ASSERT_EQ(index.column(c), d.item_rows(item));
      ASSERT_EQ(index.supports()[c], d.item_rows(item).Count());
    }
    for (RowId r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(index.label(r), d.label(r));
      // Each row bit maps to an original item of that row, and the row
      // holds a column for each of its frequent items.
      ASSERT_EQ(index.row(r).size(), index.num_columns());
      index.row(r).ForEach([&](size_t c) {
        ASSERT_TRUE(d.row_bitset(r).Test(index.item_id(c)))
            << "seed=" << seed << " row=" << r << " column=" << c;
      });
      ASSERT_EQ(index.row(r).Count(), d.row_bitset(r).IntersectCount(frequent));
      ASSERT_EQ(index.Lift(RowSet::FromBitset(index.row(r))),
                [&] {
                  Bitset items = d.row_bitset(r);
                  items.IntersectWith(frequent);
                  return items;
                }());
    }
  }
}

TEST(FrequentItemIndexTest, EveryItemFrequentCopiesNoBitset) {
  const DiscreteDataset d = RandomDataset(4, 10, 12, 0.5);
  const FrequentItemIndex index(d, 1, Bitset::AllSet(d.num_items()));
  for (RowId r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(&index.row(r), &d.row_bitset(r));
  }
  for (uint32_t c = 0; c < index.num_columns(); ++c) {
    EXPECT_EQ(&index.column(c), &d.item_rows(c));
  }
}

/// The index's ORD on the tie-saturated rows of the shard tests: rows 0-1
/// hold all three items, rows 2-13 one each (all consequent class), and
/// three negative rows one each. Every row but 0-1 weighs one frequent
/// item, so the stable sort must keep each class's light rows in row order
/// ahead of the heavy ones. The position of each row is the inverse.
TEST(FrequentItemIndexTest, OrderKeepsRowOrderWithinTies) {
  std::vector<std::vector<ItemId>> rows = {{0, 1, 2}, {0, 1, 2}};
  for (ItemId item = 0; item < 3; ++item) {
    for (int i = 0; i < 4; ++i) rows.push_back({item});
  }
  for (ItemId item = 0; item < 3; ++item) rows.push_back({item});
  std::vector<ClassLabel> labels(14, 1);
  labels.resize(17, 0);
  const DiscreteDataset d(3, std::move(rows), std::move(labels));
  const std::vector<RowId> expected[] = {
      {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 1, 14, 15, 16},
      {14, 15, 16, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 1},
  };
  for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
    const FrequentItemIndex index(d, cls, FrequentItems(d, cls, 1));
    ASSERT_EQ(index.num_columns(), 3u);
    EXPECT_EQ(index.order(), expected[cls == 1 ? 0 : 1]) << "cls=" << int{cls};
    for (uint32_t pos = 0; pos < index.num_rows(); ++pos) {
      EXPECT_EQ(index.position_of()[index.order()[pos]], pos);
    }
    EXPECT_EQ(index.supports(), (std::vector<uint32_t>{7, 7, 7}));
  }
}

/// Mines `data` and `wide`, `data` with columns inserted that are
/// infrequent in `cls` at `minsup` (WithInfrequentColumns), and checks
/// that the search saw the same thing: equal counters, and per row the
/// same groups, each antecedent lifted into the wider universe. The Step
/// 10 cost model reads the item-universe width, so postings_scans is
/// compared only when both universes span the same number of words.
void ExpectInfrequentColumnsChangeNothing(const DiscreteDataset& data,
                                          ClassLabel cls, uint32_t k,
                                          uint32_t minsup, uint32_t extra,
                                          uint64_t seed) {
  std::vector<ItemId> lift;
  const DiscreteDataset wide =
      WithInfrequentColumns(data, cls, minsup, extra, seed, &lift);
  const std::string context = "items=" + std::to_string(data.num_items()) +
                              "+" + std::to_string(extra) +
                              " cls=" + std::to_string(cls) +
                              " k=" + std::to_string(k) +
                              " minsup=" + std::to_string(minsup) +
                              " seed=" + std::to_string(seed);
  ASSERT_EQ(LiftItems(FrequentItems(data, cls, minsup), lift, wide.num_items()),
            FrequentItems(wide, cls, minsup))
      << context;
  TopkMinerOptions opt;
  opt.k = k;
  opt.min_support = minsup;
  const TopkResult narrow_result = MineTopkRGS(data, cls, opt);
  const TopkResult wide_result = MineTopkRGS(wide, cls, opt);

  const MinerStats& a = narrow_result.stats;
  const MinerStats& b = wide_result.stats;
  ASSERT_FALSE(a.timed_out || b.timed_out) << context;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << context;
  EXPECT_EQ(a.groups_emitted, b.groups_emitted) << context;
  EXPECT_EQ(a.pruned_backward, b.pruned_backward) << context;
  EXPECT_EQ(a.pruned_bounds, b.pruned_bounds) << context;
  EXPECT_EQ(a.freq_scans, b.freq_scans) << context;
  EXPECT_EQ(a.cut_rows_scanned, b.cut_rows_scanned) << context;
  if ((data.num_items() + 63) / 64 == (wide.num_items() + 63) / 64) {
    EXPECT_EQ(a.postings_scans, b.postings_scans) << context;
  }

  EXPECT_EQ(narrow_result.effective_min_support,
            wide_result.effective_min_support)
      << context;
  ASSERT_EQ(narrow_result.per_row.size(), wide_result.per_row.size());
  for (RowId r = 0; r < data.num_rows(); ++r) {
    const auto& la = narrow_result.per_row[r];
    const auto& lb = wide_result.per_row[r];
    ASSERT_EQ(la.size(), lb.size()) << context << " row=" << r;
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i]->support, lb[i]->support) << context << " row=" << r;
      EXPECT_EQ(la[i]->antecedent_support, lb[i]->antecedent_support)
          << context << " row=" << r;
      EXPECT_EQ(la[i]->row_support, lb[i]->row_support)
          << context << " row=" << r;
      EXPECT_EQ(LiftItems(la[i]->antecedent, lift, wide.num_items()),
                lb[i]->antecedent)
          << context << " row=" << r << " rank=" << i;
    }
  }
}

TEST(TopkMinerTest, InfrequentColumnsChangeNothing) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    for (ClassLabel cls : {ClassLabel{1}, ClassLabel{0}}) {
      for (uint32_t minsup : {2u, 3u}) {
        for (uint32_t k : {1u, 4u}) {
          // 40 + 24 items stay within one word; 40 + 100 span three.
          ExpectInfrequentColumnsChangeNothing(
              RandomDataset(seed + 11, 28, 40, 0.35), cls, k, minsup, 24,
              seed);
          ExpectInfrequentColumnsChangeNothing(
              RandomDataset(seed + 11, 28, 40, 0.35), cls, k, minsup, 100,
              seed);
          // 600 + 40 items stay within ten words, and Step 10 counts
          // from postings at some nodes.
          ExpectInfrequentColumnsChangeNothing(
              WideSparseDataset(seed + 11, 24, 600), cls, k, minsup, 40,
              seed);
        }
      }
    }
  }
}

}  // namespace
}  // namespace topkrgs
