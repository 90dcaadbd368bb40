#include "core/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace topkrgs {
namespace {

TEST(EntropyTest, PureIsZero) {
  EXPECT_DOUBLE_EQ(Entropy({10, 0}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
}

TEST(EntropyTest, UniformBinaryIsOne) {
  EXPECT_DOUBLE_EQ(Entropy({5, 5}), 1.0);
}

TEST(EntropyTest, UniformKClasses) {
  EXPECT_NEAR(Entropy({3, 3, 3, 3}), 2.0, 1e-12);
  EXPECT_NEAR(Entropy({2, 2, 2, 2, 2, 2, 2, 2}), 3.0, 1e-12);
}

TEST(EntropyTest, KnownValue) {
  // H(0.25) = 0.811278...
  EXPECT_NEAR(Entropy({1, 3}), 0.8112781244591328, 1e-12);
}

TEST(EntropyTest, TableTermsMatchDirectLog2BitForBit) {
  // The terms up to a total of 256 come from a table, larger totals are
  // computed directly; both must give the bits of the plain loop.
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (uint32_t t = 1; t <= 300; ++t) {
    for (uint32_t c = 1; c <= t; ++c) {
      double want = 0.0;
      for (uint32_t count : {c, t - c}) {
        if (count == 0) continue;
        const double p = static_cast<double>(count) / static_cast<double>(t);
        want -= p * std::log2(p);
      }
      ASSERT_TRUE(same_bits(Entropy({c, t - c}), want)) << c << "/" << t;
    }
  }
}

TEST(PartitionEntropyTest, WeightedAverage) {
  // Partition {4,0} and {0,4}: both pure -> 0.
  EXPECT_DOUBLE_EQ(PartitionEntropy({{4, 0}, {0, 4}}), 0.0);
  // Partition {2,2} and {2,2}: both uniform -> 1.
  EXPECT_DOUBLE_EQ(PartitionEntropy({{2, 2}, {2, 2}}), 1.0);
  // 3/4 weight pure, 1/4 weight uniform: 0.25.
  EXPECT_NEAR(PartitionEntropy({{6, 0}, {1, 1}}), 0.25, 1e-12);
}

TEST(InformationGainTest, PerfectSplit) {
  EXPECT_DOUBLE_EQ(InformationGain({4, 4}, {{4, 0}, {0, 4}}), 1.0);
}

TEST(InformationGainTest, UselessSplit) {
  EXPECT_NEAR(InformationGain({4, 4}, {{2, 2}, {2, 2}}), 0.0, 1e-12);
}

TEST(ChiSquareTest, IndependenceGivesZero) {
  EXPECT_NEAR(ChiSquare({{10, 20}, {20, 40}}), 0.0, 1e-9);
}

TEST(ChiSquareTest, PerfectAssociation) {
  // 2x2 perfect split of N = 20: chi-square = N.
  EXPECT_NEAR(ChiSquare({{10, 0}, {0, 10}}), 20.0, 1e-9);
}

TEST(ChiSquareTest, KnownTextbookValue) {
  // Classic 2x2: ((ad-bc)^2 * n) / ((a+b)(c+d)(a+c)(b+d)).
  const double expected =
      std::pow(30.0 * 34.0 - 10.0 * 26.0, 2) * 100.0 /
      (40.0 * 60.0 * 56.0 * 44.0);
  EXPECT_NEAR(ChiSquare({{30, 10}, {26, 34}}), expected, 1e-9);
}

TEST(ChiSquareTest, EmptyTable) {
  EXPECT_DOUBLE_EQ(ChiSquare({}), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquare({{0, 0}, {0, 0}}), 0.0);
}

TEST(BestSplitTest, SeparableFeatureHasFullGain) {
  const std::vector<double> values = {1, 2, 3, 10, 11, 12};
  const std::vector<uint8_t> labels = {0, 0, 0, 1, 1, 1};
  EXPECT_NEAR(BestSplitInfoGain(values, labels, 2), 1.0, 1e-12);
  EXPECT_NEAR(BestSplitChiSquare(values, labels, 2), 6.0, 1e-9);
}

TEST(BestSplitTest, ConstantFeatureHasZeroGain) {
  const std::vector<double> values = {5, 5, 5, 5};
  const std::vector<uint8_t> labels = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(BestSplitInfoGain(values, labels, 2), 0.0);
  EXPECT_DOUBLE_EQ(BestSplitChiSquare(values, labels, 2), 0.0);
}

TEST(BestSplitTest, NoisyFeatureHasPartialGain) {
  const std::vector<double> values = {1, 2, 3, 4, 10, 11, 12, 13};
  const std::vector<uint8_t> labels = {0, 0, 0, 1, 0, 1, 1, 1};
  const double gain = BestSplitInfoGain(values, labels, 2);
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(gain, 1.0);
}

TEST(BestSplitTest, SingletonInput) {
  EXPECT_DOUBLE_EQ(BestSplitInfoGain({1.0}, {0}, 2), 0.0);
}

TEST(BestSplitDeathTest, LabelOutOfRangeAborts) {
  // A label >= num_classes would count past the class histogram.
  EXPECT_DEATH(BestSplitInfoGain({1.0, 2.0, 3.0}, {0, 2, 1}, 2),
               "label out of range");
  EXPECT_DEATH(BestSplitChiSquare({1.0, 2.0}, {0, 1}, 1),
               "label out of range");
  EXPECT_DEATH(BestSplitInfoGain({1.0}, {5}, 2), "label out of range");
}

/// Bitwise equality, except that any two zeros match.
bool SameValue(double a, double b) {
  if (a == 0.0 && b == 0.0) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Sorts with SortByValue and checks it against std::sort: the values
/// position by position, and the labels of every run of equal values as a
/// multiset.
void ExpectSortsLikeStdSort(const std::vector<double>& values,
                            const std::vector<uint8_t>& labels,
                            SortScratch* scratch) {
  const size_t n = values.size();
  std::vector<double> got_values(n);
  std::vector<uint8_t> got_labels(n);
  SortByValue(values.data(), labels.data(), n, scratch, got_values.data(),
              got_labels.data());
  std::vector<std::pair<double, uint8_t>> want(n);
  for (size_t i = 0; i < n; ++i) want[i] = {values[i], labels[i]};
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  });
  size_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(SameValue(got_values[i], want[i].first))
        << "position " << i << ": " << got_values[i] << " vs "
        << want[i].first;
    if (i + 1 < n && got_values[i + 1] == got_values[i]) continue;
    // [run, i] is one run of equal values.
    std::vector<uint8_t> run_labels(got_labels.begin() + run,
                                    got_labels.begin() + i + 1);
    std::sort(run_labels.begin(), run_labels.end());
    for (size_t j = run; j <= i; ++j) {
      ASSERT_EQ(run_labels[j - run], want[j].second) << "run at " << run;
    }
    run = i + 1;
  }
}

TEST(SortByValueTest, MatchesStdSortOnEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials = {
      -0.0, 0.0, kSub, -kSub, 7 * kSub, kInf, -kInf,
      std::numeric_limits<double>::min(), -std::numeric_limits<double>::max(),
      1.0, -1.0, 1.0 + 1e-15};
  std::mt19937_64 rng(42);
  std::normal_distribution<double> normal(0.0, 3.0);
  SortScratch scratch;  // one scratch across sizes, growing and shrinking
  for (size_t n : {3u, 17u, 210u, 64u, 600u, 255u, 1000u}) {
    std::vector<double> values(n);
    std::vector<uint8_t> labels(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng() % 4) {
        case 0: values[i] = specials[rng() % specials.size()]; break;
        case 1: values[i] = static_cast<double>(rng() % 8) - 4.0; break;
        default: values[i] = normal(rng);
      }
      labels[i] = static_cast<uint8_t>(rng() % 3);
    }
    ExpectSortsLikeStdSort(values, labels, &scratch);
  }
}

TEST(SortByValueTest, ConstantAndZeroColumns) {
  SortScratch scratch;
  ExpectSortsLikeStdSort(std::vector<double>(50, 2.5),
                         std::vector<uint8_t>(50, 1), &scratch);
  std::vector<double> zeros(40);
  std::vector<uint8_t> labels(40);
  for (size_t i = 0; i < zeros.size(); ++i) {
    zeros[i] = i % 3 == 0 ? -0.0 : 0.0;
    labels[i] = static_cast<uint8_t>(i % 2);
  }
  ExpectSortsLikeStdSort(zeros, labels, &scratch);
}

TEST(SortByValueTest, EqualValuesKeepInputOrder) {
  const std::vector<double> values = {3.0, 1.0, 3.0, 1.0, 3.0};
  const std::vector<uint8_t> labels = {0, 1, 2, 3, 4};
  SortScratch scratch;
  std::vector<double> sorted_values(5);
  std::vector<uint8_t> sorted_labels(5);
  SortByValue(values.data(), labels.data(), 5, &scratch, sorted_values.data(),
              sorted_labels.data());
  EXPECT_EQ(sorted_values, (std::vector<double>{1.0, 1.0, 3.0, 3.0, 3.0}));
  EXPECT_EQ(sorted_labels, (std::vector<uint8_t>{1, 3, 0, 2, 4}));
}

TEST(SortByValueTest, EmptySingleAndPair) {
  SortScratch scratch;
  SortByValue(nullptr, nullptr, 0, &scratch, nullptr, nullptr);

  const double one = -2.0;
  const uint8_t one_label = 1;
  double one_out = 0.0;
  uint8_t one_label_out = 0;
  SortByValue(&one, &one_label, 1, &scratch, &one_out, &one_label_out);
  EXPECT_EQ(one_out, -2.0);
  EXPECT_EQ(one_label_out, 1);

  const double pair[2] = {5.0, -5.0};
  const uint8_t pair_labels[2] = {0, 1};
  double pair_out[2];
  uint8_t pair_labels_out[2];
  SortByValue(pair, pair_labels, 2, &scratch, pair_out, pair_labels_out);
  EXPECT_EQ(pair_out[0], -5.0);
  EXPECT_EQ(pair_out[1], 5.0);
  EXPECT_EQ(pair_labels_out[0], 1);
  EXPECT_EQ(pair_labels_out[1], 0);

  const double tied[2] = {4.0, 4.0};
  SortByValue(tied, pair_labels, 2, &scratch, pair_out, pair_labels_out);
  EXPECT_EQ(pair_out[0], 4.0);
  EXPECT_EQ(pair_out[1], 4.0);
  EXPECT_EQ(pair_labels_out[0], 0);
  EXPECT_EQ(pair_labels_out[1], 1);
}

}  // namespace
}  // namespace topkrgs
