#include "core/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/rule.h"
#include "util/io.h"

namespace topkrgs {
namespace {

// Items of the running example (Figure 1a).
ItemId I(char c) { return RunningExampleItem(c); }

Bitset ItemsOf(const DiscreteDataset& data, const std::string& names) {
  Bitset b(data.num_items());
  for (char c : names) b.Set(I(c));
  return b;
}

Bitset RowsOf(const DiscreteDataset& data, std::initializer_list<uint32_t> rows) {
  Bitset b(data.num_rows());
  for (uint32_t r : rows) b.Set(r - 1);  // paper rows are 1-based
  return b;
}

TEST(RunningExampleTest, Shape) {
  DiscreteDataset d = MakeRunningExampleDataset();
  EXPECT_EQ(d.num_rows(), 5u);
  EXPECT_EQ(d.num_items(), 10u);
  EXPECT_EQ(d.num_classes(), 2u);
  EXPECT_EQ(d.label(0), 1);  // r1 is class C
  EXPECT_EQ(d.label(4), 0);  // r5 is ¬C
  EXPECT_EQ(d.ClassCounts(), (std::vector<uint32_t>{2, 3}));
}

TEST(RunningExampleTest, ItemSupportSetExample21) {
  // Example 2.1: R({c,d,e}) = {r1, r3, r4}.
  DiscreteDataset d = MakeRunningExampleDataset();
  EXPECT_EQ(d.ItemSupportSet(ItemsOf(d, "cde")), RowsOf(d, {1, 3, 4}));
}

TEST(RunningExampleTest, RowSupportSetExample21) {
  // Example 2.1: I({r1, r3}) = {c, d, e}.
  DiscreteDataset d = MakeRunningExampleDataset();
  EXPECT_EQ(d.RowSupportSet(RowsOf(d, {1, 3})), ItemsOf(d, "cde"));
}

TEST(RunningExampleTest, RuleGroupExample22) {
  // Example 2.2: R(a)=R(b)=R(ab)=...=R(abc)={r1,r2}; upper bound abc -> C.
  DiscreteDataset d = MakeRunningExampleDataset();
  for (const char* lower : {"a", "b", "ab", "ac", "bc", "abc"}) {
    EXPECT_EQ(d.ItemSupportSet(ItemsOf(d, lower)), RowsOf(d, {1, 2})) << lower;
  }
  RuleGroup g = CloseItemset(d, ItemsOf(d, "a"), 1);
  EXPECT_EQ(g.antecedent, ItemsOf(d, "abc"));
  EXPECT_EQ(g.support, 2u);
  EXPECT_EQ(g.antecedent_support, 2u);
  EXPECT_DOUBLE_EQ(g.confidence(), 1.0);
}

TEST(RunningExampleTest, EmptyItemsetSupportsAllRows) {
  DiscreteDataset d = MakeRunningExampleDataset();
  EXPECT_EQ(d.ItemSupportSet(Bitset(d.num_items())).Count(), 5u);
  EXPECT_EQ(d.RowSupportSet(Bitset(d.num_rows())).Count(), 10u);
}

TEST(DiscreteDatasetTest, DeduplicatesAndSortsRowItems) {
  DiscreteDataset d(5, {{3, 1, 3, 0}}, {0});
  EXPECT_EQ(d.row_items(0), (std::vector<ItemId>{0, 1, 3}));
}

TEST(DiscreteDatasetTest, IndexesAreConsistent) {
  DiscreteDataset d = MakeRunningExampleDataset();
  for (RowId r = 0; r < d.num_rows(); ++r) {
    for (ItemId i = 0; i < d.num_items(); ++i) {
      EXPECT_EQ(d.row_bitset(r).Test(i), d.item_rows(i).Test(r));
    }
  }
}

TEST(DiscreteDatasetTest, SelectRows) {
  DiscreteDataset d = MakeRunningExampleDataset();
  DiscreteDataset s = d.SelectRows({4, 0});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.label(0), 0);
  EXPECT_EQ(s.label(1), 1);
  EXPECT_EQ(s.row_items(1), d.row_items(0));
}

TEST(ContinuousDatasetTest, AddRowAndAccess) {
  ContinuousDataset d(3);
  d.AddRow({1.0, 2.0, 3.0}, 1);
  d.AddRow({4.0, 5.0, 6.0}, 0);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_genes(), 3u);
  EXPECT_EQ(d.num_classes(), 2u);
  EXPECT_DOUBLE_EQ(d.value(1, 2), 6.0);
  EXPECT_EQ(d.GeneColumn(1), (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(d.ClassCounts(), (std::vector<uint32_t>{1, 1}));
}

TEST(ContinuousDatasetTest, TsvRoundtrip) {
  ContinuousDataset d(2);
  d.set_gene_name(0, "TP53");
  d.set_gene_name(1, "BRCA1");
  d.AddRow({1.25, -3.5e-4}, 1);
  d.AddRow({0.0, 42.0}, 0);
  const std::string path = ::testing::TempDir() + "/topkrgs_ds.tsv";
  ASSERT_TRUE(d.WriteTsv(path).ok());
  auto back = ContinuousDataset::ReadTsv(path);
  ASSERT_TRUE(back.ok());
  const ContinuousDataset& r = back.value();
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.num_genes(), 2u);
  EXPECT_EQ(r.gene_name(0), "TP53");
  EXPECT_DOUBLE_EQ(r.value(0, 1), -3.5e-4);
  EXPECT_EQ(r.label(1), 0);
  std::remove(path.c_str());
}

TEST(ContinuousDatasetTest, ReadRejectsMalformed) {
  const std::string path = ::testing::TempDir() + "/topkrgs_bad.tsv";
  ASSERT_TRUE(WriteLines(path, {"label\tG0", "1\t2.0\t3.0"}).ok());
  EXPECT_FALSE(ContinuousDataset::ReadTsv(path).ok());
  ASSERT_TRUE(WriteLines(path, {"notlabel\tG0", "1\t2.0"}).ok());
  EXPECT_FALSE(ContinuousDataset::ReadTsv(path).ok());
  std::remove(path.c_str());
}

TEST(ContinuousDatasetTest, ParseTsvRejectsSemanticViolations) {
  // Label 300 does not fit in ClassLabel (uint8_t); a silent narrowing
  // cast would alias it to class 44.
  EXPECT_FALSE(ContinuousDataset::ParseTsv({"label\tG0", "300\t2.0"}).ok());
  // NaN breaks strict weak ordering in the discretizer's value sorts.
  EXPECT_FALSE(ContinuousDataset::ParseTsv({"label\tG0", "1\tnan"}).ok());
  EXPECT_FALSE(ContinuousDataset::ParseTsv({"label\tG0", "1\tinf"}).ok());
  // Header-only input: zero data rows would make EntropyDiscretizer::Fit
  // abort downstream.
  EXPECT_FALSE(ContinuousDataset::ParseTsv({"label\tG0\tG1"}).ok());
  EXPECT_FALSE(ContinuousDataset::ParseTsv({}).ok());
}

TEST(DiscreteDatasetTest, ParseItemDataRejectsSemanticViolations) {
  // Valid baseline parses.
  auto ok = DiscreteDataset::ParseItemData({"0\t1 2 5", "1\t0 3"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_rows(), 2u);
  // Label beyond ClassLabel range.
  EXPECT_FALSE(DiscreteDataset::ParseItemData({"300\t1 2"}).ok());
  // Item id beyond the declared universe.
  EXPECT_FALSE(DiscreteDataset::ParseItemData({"0\t1 9"}, /*num_items=*/4).ok());
  // Inferred-universe allocation bomb: one huge id would size the whole
  // per-item row index.
  EXPECT_FALSE(DiscreteDataset::ParseItemData({"0\t99999999"}).ok());
  // uint64 overflow in an item id.
  EXPECT_FALSE(
      DiscreteDataset::ParseItemData({"0\t18446744073709551616"}).ok());
  // Missing the label<TAB>items separator entirely.
  EXPECT_FALSE(DiscreteDataset::ParseItemData({"0 1 2"}).ok());
}

TEST(RuleSignificanceTest, Definition22) {
  // Higher confidence wins regardless of support.
  EXPECT_GT(CompareSignificance(2, 2, 10, 20), 0);   // 100% beats 50%
  EXPECT_LT(CompareSignificance(10, 20, 2, 2), 0);
  // Equal confidence: higher support wins.
  EXPECT_GT(CompareSignificance(4, 8, 2, 4), 0);
  EXPECT_LT(CompareSignificance(2, 4, 4, 8), 0);
  // Full tie.
  EXPECT_EQ(CompareSignificance(3, 6, 3, 6), 0);
  // Dummies (confidence 0).
  EXPECT_GT(CompareSignificance(1, 2, 0, 0), 0);
  EXPECT_EQ(CompareSignificance(0, 0, 0, 0), 0);
}

}  // namespace
}  // namespace topkrgs
