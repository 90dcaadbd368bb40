#include "mine/prefix_tree.h"

#include <gtest/gtest.h>

#include "mine/miner_common.h"
#include "mine/transposed_table.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

std::vector<RowId> IdentityOrder(uint32_t n) {
  std::vector<RowId> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

TEST(TransposedTableTest, RunningExampleFigure1b) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TransposedTable tt = TransposedTable::Build(
      d, IdentityOrder(5), Bitset::AllSet(d.num_items()));
  EXPECT_EQ(tt.num_tuples(), 10u);
  // Tuple of item c spans rows 1..4 (positions 0..3).
  for (const auto& tuple : tt.tuples()) {
    if (tuple.item == RunningExampleItem('c')) {
      EXPECT_EQ(tuple.positions, (std::vector<uint32_t>{0, 1, 2, 3}));
    }
    if (tuple.item == RunningExampleItem('h')) {
      EXPECT_EQ(tuple.positions, (std::vector<uint32_t>{4}));
    }
  }
}

TEST(TransposedTableTest, ProjectionFigure1cAnd1d) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TransposedTable tt = TransposedTable::Build(
      d, IdentityOrder(5), Bitset::AllSet(d.num_items()));
  // TT|{1}: tuples containing position 0, truncated to positions > 0.
  TransposedTable tt1 = tt.Project(0);
  EXPECT_EQ(tt1.num_tuples(), 5u);  // a, b, c, d, e
  // TT|{1,3}: project again on position 2 -> items c, d, e remain.
  TransposedTable tt13 = tt1.Project(2);
  EXPECT_EQ(tt13.num_tuples(), 3u);
  // Figure 1(d): c -> {4}, d -> {4}, e -> {4, 5} (positions 3 / 3,4).
  for (const auto& tuple : tt13.tuples()) {
    if (tuple.item == RunningExampleItem('e')) {
      EXPECT_EQ(tuple.positions, (std::vector<uint32_t>{3, 4}));
    } else {
      EXPECT_EQ(tuple.positions, (std::vector<uint32_t>{3}));
    }
  }
}

TEST(TransposedTableTest, FrequencyCountsTuplesContainingPosition) {
  DiscreteDataset d = MakeRunningExampleDataset();
  TransposedTable tt = TransposedTable::Build(
      d, IdentityOrder(5), Bitset::AllSet(d.num_items()));
  // freq(pos) == number of items of that row == 5 for every row here.
  for (uint32_t pos = 0; pos < 5; ++pos) {
    EXPECT_EQ(tt.Frequency(pos), 5u);
  }
}

TEST(PrefixTreeTest, RootMatchesTransposedTable) {
  DiscreteDataset d = MakeRunningExampleDataset();
  const auto order = IdentityOrder(5);
  const Bitset all = Bitset::AllSet(d.num_items());
  PrefixTree tree = PrefixTree::BuildRoot(d, order, all);
  TransposedTable tt = TransposedTable::Build(d, order, all);
  EXPECT_EQ(tree.tuple_count(), tt.num_tuples());
  for (uint32_t pos = 0; pos < 5; ++pos) {
    EXPECT_EQ(tree.freq(pos), tt.Frequency(pos)) << pos;
  }
}

TEST(PrefixTreeTest, ConditionalMatchesProjection) {
  DiscreteDataset d = MakeRunningExampleDataset();
  const auto order = IdentityOrder(5);
  const Bitset all = Bitset::AllSet(d.num_items());
  PrefixTree tree = PrefixTree::BuildRoot(d, order, all);
  TransposedTable tt = TransposedTable::Build(d, order, all);
  for (uint32_t pos = 0; pos < 5; ++pos) {
    PrefixTree cond = tree.Conditional(pos);
    TransposedTable proj = tt.Project(pos);
    EXPECT_EQ(cond.tuple_count(), proj.num_tuples()) << pos;
    for (uint32_t q = pos + 1; q < 5; ++q) {
      EXPECT_EQ(cond.freq(q), proj.Frequency(q)) << pos << "," << q;
    }
  }
}

TEST(PrefixTreeTest, NestedConditionalsMatchNestedProjections) {
  DiscreteDataset d = MakeRunningExampleDataset();
  const auto order = IdentityOrder(5);
  const Bitset all = Bitset::AllSet(d.num_items());
  PrefixTree tree = PrefixTree::BuildRoot(d, order, all);
  TransposedTable tt = TransposedTable::Build(d, order, all);
  // {1,3}: I(X) = {c,d,e}; Figure 1(d).
  PrefixTree cond = tree.Conditional(0).Conditional(2);
  TransposedTable proj = tt.Project(0).Project(2);
  EXPECT_EQ(cond.tuple_count(), 3u);
  EXPECT_EQ(cond.tuple_count(), proj.num_tuples());
  EXPECT_EQ(cond.freq(3), 3u);  // c, d, e all contain row 4
  EXPECT_EQ(cond.freq(4), 1u);  // only e contains row 5
}

TEST(PrefixTreeTest, SharesPrefixPaths) {
  // Rows 0 and 1 share all items: the tree must share paths, not duplicate.
  DiscreteDataset d(4, {{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1}}, {1, 1, 0});
  PrefixTree tree =
      PrefixTree::BuildRoot(d, IdentityOrder(3), Bitset::AllSet(4));
  // Tuples: item0 {0,1,2}, item1 {0,1,2}, item2 {0,1}, item3 {0,1}.
  // Descending paths: {2,1,0} x2 and {1,0} x2 share the whole structure:
  // 2-1-0 chain plus 1-0 chain = 5 nodes.
  EXPECT_EQ(tree.node_count(), 5u);
  EXPECT_EQ(tree.tuple_count(), 4u);
}

TEST(PrefixTreeTest, RandomizedAgreementWithTransposedTable) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    DiscreteDataset d = RandomDataset(seed, 9, 12, 0.4);
    const auto order = IdentityOrder(9);
    const Bitset all = Bitset::AllSet(d.num_items());
    PrefixTree tree = PrefixTree::BuildRoot(d, order, all);
    TransposedTable tt = TransposedTable::Build(d, order, all);
    for (uint32_t a = 0; a < 9; ++a) {
      PrefixTree ca = tree.Conditional(a);
      TransposedTable pa = tt.Project(a);
      ASSERT_EQ(ca.tuple_count(), pa.num_tuples()) << seed << " " << a;
      for (uint32_t b = a + 1; b < 9; ++b) {
        ASSERT_EQ(ca.freq(b), pa.Frequency(b)) << seed << " " << a << " " << b;
        PrefixTree cab = ca.Conditional(b);
        TransposedTable pab = pa.Project(b);
        ASSERT_EQ(cab.tuple_count(), pab.num_tuples());
        for (uint32_t c = b + 1; c < 9; ++c) {
          ASSERT_EQ(cab.freq(c), pab.Frequency(c));
        }
      }
    }
  }
}

TEST(MinerCommonTest, ClassDominantOrder) {
  DiscreteDataset d = MakeRunningExampleDataset();
  auto order = ClassDominantOrder(d.labels(), 1,
                                  std::vector<uint32_t>(d.num_rows(), 0));
  ASSERT_EQ(order.size(), 5u);
  // Rows of class 1 (r1,r2,r3) precede rows of class 0 (r4,r5).
  for (int i = 0; i < 3; ++i) EXPECT_EQ(d.label(order[i]), 1);
  for (int i = 3; i < 5; ++i) EXPECT_EQ(d.label(order[i]), 0);
  // Equal weights keep each class in row order.
  EXPECT_EQ(order, (std::vector<RowId>{0, 1, 2, 3, 4}));
}

TEST(MinerCommonTest, OrderSortsByFrequentItemCountWithinClass) {
  // Class-1 rows with 1, 3, 2 frequent items -> order 0, 2, 1 by weight.
  const std::vector<ClassLabel> labels = {1, 1, 1, 0};
  auto order = ClassDominantOrder(labels, 1, std::vector<uint32_t>{1, 3, 2, 1});
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 3u);
}

TEST(MinerCommonTest, FrequentItemsCountsClassSupport) {
  DiscreteDataset d = MakeRunningExampleDataset();
  // Class C support: a:2 b:2 c:3 d:2 e:2 f:1 g:1 h:0 o:1 p:1.
  Bitset freq2 = FrequentItems(d, 1, 2);
  EXPECT_EQ(freq2.ToVector(),
            (std::vector<uint32_t>{RunningExampleItem('a'),
                                   RunningExampleItem('b'),
                                   RunningExampleItem('c'),
                                   RunningExampleItem('d'),
                                   RunningExampleItem('e')}));
  Bitset freq3 = FrequentItems(d, 1, 3);
  EXPECT_EQ(freq3.ToVector(),
            (std::vector<uint32_t>{RunningExampleItem('c')}));
}

TEST(MinerCommonTest, CountClassRows) {
  DiscreteDataset d = MakeRunningExampleDataset();
  EXPECT_EQ(CountClassRows(d, 1), 3u);
  EXPECT_EQ(CountClassRows(d, 0), 2u);
}

}  // namespace
}  // namespace topkrgs
