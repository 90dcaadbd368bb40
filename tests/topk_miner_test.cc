#include "mine/topk_miner.h"

#include <gtest/gtest.h>

#include "mine/miner_common.h"
#include "mine/naive_miner.h"
#include "scale/topk_merge.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;
using testing_util::SignificanceSeq;
using testing_util::SignificanceSeqValues;
using testing_util::WideSparseDataset;

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

}  // namespace
}  // namespace topkrgs
