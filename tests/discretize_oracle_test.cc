// Cut identity: the entropy discretizer and the gene scores share one
// sort-and-scan kernel (SortByValue + BestBoundarySplit). The
// implementations it replaced are kept here verbatim as oracles (only
// renamed), and the selected genes, cut points, best-split gains and
// chi-square scores must stay bit-identical: on all four paper profiles, on
// a training split larger than the entropy-term table, and on hand-built
// columns of duplicates, signed zeros, subnormals and infinities.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <ostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats.h"
#include "discretize/entropy_discretizer.h"
#include "synth/generator.h"

namespace topkrgs {

/// Prints a profile by name, so the discovered test names of the
/// CutIdentityTest instances do not embed the raw bytes of the struct (which
/// include a heap address and change from one process to the next).
void PrintTo(const DatasetProfile& profile, std::ostream* os) {
  *os << profile.name;
}

namespace {

// ---- The per-boundary-allocating implementations, verbatim. -------------

/// Recursive Fayyad–Irani partitioning of rows [begin, end) of the sorted
/// (value, label) sequence. Appends accepted cut values to `cuts`.
class LegacyGeneSplitter {
 public:
  LegacyGeneSplitter(const std::vector<double>& sorted_values,
               const std::vector<uint8_t>& sorted_labels, uint32_t num_classes,
               const EntropyDiscretizer::Options& options)
      : values_(sorted_values),
        labels_(sorted_labels),
        num_classes_(num_classes),
        options_(options) {}

  void Run(std::vector<double>* cuts) {
    Split(0, values_.size(), 0, cuts);
    std::sort(cuts->begin(), cuts->end());
  }

 private:
  /// Class histogram of rows [begin, end).
  std::vector<uint32_t> Histogram(size_t begin, size_t end) const {
    std::vector<uint32_t> h(num_classes_, 0);
    for (size_t i = begin; i < end; ++i) ++h[labels_[i]];
    return h;
  }

  /// Number of classes present in a histogram.
  static uint32_t ClassesPresent(const std::vector<uint32_t>& h) {
    uint32_t k = 0;
    for (uint32_t c : h) k += (c != 0);
    return k;
  }

  void Split(size_t begin, size_t end, uint32_t depth,
             std::vector<double>* cuts) {
    const size_t n = end - begin;
    if (n < 2) return;
    if (options_.max_depth != 0 && depth >= options_.max_depth) return;

    const std::vector<uint32_t> total = Histogram(begin, end);
    if (ClassesPresent(total) < 2) return;  // pure partition

    // Scan boundary points: candidate cut between i and i+1 where the value
    // changes. Track the split minimizing conditional entropy.
    std::vector<uint32_t> left(num_classes_, 0);
    std::vector<uint32_t> right = total;
    double best_cond = -1.0;
    size_t best_i = 0;
    std::vector<uint32_t> best_left, best_right;
    for (size_t i = begin; i + 1 < end; ++i) {
      ++left[labels_[i]];
      --right[labels_[i]];
      if (values_[i] == values_[i + 1]) continue;
      const double cond = PartitionEntropy({left, right});
      if (best_cond < 0 || cond < best_cond) {
        best_cond = cond;
        best_i = i;
        best_left = left;
        best_right = right;
      }
    }
    if (best_cond < 0) return;  // constant values: no boundary

    const double ent_s = Entropy(total);
    const double gain = ent_s - best_cond;
    if (options_.use_mdl) {
      // MDL acceptance (Fayyad & Irani 1993):
      //   gain > log2(n-1)/n + delta/n
      //   delta = log2(3^k - 2) - (k*Ent(S) - k1*Ent(S1) - k2*Ent(S2))
      const double k = ClassesPresent(total);
      const double k1 = ClassesPresent(best_left);
      const double k2 = ClassesPresent(best_right);
      const double ent1 = Entropy(best_left);
      const double ent2 = Entropy(best_right);
      const double delta = std::log2(std::pow(3.0, k) - 2.0) -
                           (k * ent_s - k1 * ent1 - k2 * ent2);
      const double threshold =
          (std::log2(static_cast<double>(n) - 1.0) + delta) /
          static_cast<double>(n);
      if (gain <= threshold) return;
    } else if (gain <= 0) {
      return;
    }

    // Cut at the midpoint between the boundary values.
    cuts->push_back(0.5 * (values_[best_i] + values_[best_i + 1]));
    Split(begin, best_i + 1, depth + 1, cuts);
    Split(best_i + 1, end, depth + 1, cuts);
  }

  const std::vector<double>& values_;
  const std::vector<uint8_t>& labels_;
  const uint32_t num_classes_;
  const EntropyDiscretizer::Options& options_;
};

struct LegacyCuts {
  std::vector<GeneId> genes;
  std::vector<std::vector<double>> cuts;
};

/// The former EntropyDiscretizer::Fit loop, returning genes and cuts.
LegacyCuts LegacyFit(const ContinuousDataset& train,
                     const EntropyDiscretizer::Options& options) {
  LegacyCuts result;
  const uint32_t n = train.num_rows();
  std::vector<uint32_t> order(n);
  std::vector<double> sorted_values(n);
  std::vector<uint8_t> sorted_labels(n);

  for (GeneId g = 0; g < train.num_genes(); ++g) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return train.value(a, g) < train.value(b, g);
    });
    for (uint32_t i = 0; i < n; ++i) {
      sorted_values[i] = train.value(order[i], g);
      sorted_labels[i] = train.label(order[i]);
    }
    std::vector<double> cuts;
    LegacyGeneSplitter splitter(sorted_values, sorted_labels,
                                train.num_classes(), options);
    splitter.Run(&cuts);
    if (cuts.empty()) continue;  // gene dropped: no MDL-accepted cut
    result.genes.push_back(g);
    result.cuts.push_back(std::move(cuts));
  }
  return result;
}

/// Sorts (value, label) pairs and evaluates every boundary threshold,
/// returning class histograms of the best binary split by info gain.
/// Returns false when no split exists (constant feature).
bool LegacyBestBinarySplit(const std::vector<double>& values,
                     const std::vector<uint8_t>& labels, uint32_t num_classes,
                     std::vector<uint32_t>* best_left,
                     std::vector<uint32_t>* best_right) {
  TOPKRGS_CHECK(values.size() == labels.size(), "values/labels size mismatch");
  const size_t n = values.size();
  if (n < 2) return false;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });

  std::vector<uint32_t> total(num_classes, 0);
  for (uint8_t l : labels) ++total[l];

  std::vector<uint32_t> left(num_classes, 0);
  std::vector<uint32_t> right = total;
  double best_cond = -1.0;
  bool found = false;
  for (size_t i = 0; i + 1 < n; ++i) {
    const uint8_t l = labels[order[i]];
    ++left[l];
    --right[l];
    if (values[order[i]] == values[order[i + 1]]) continue;
    const double cond = PartitionEntropy({left, right});
    if (!found || cond < best_cond) {
      best_cond = cond;
      *best_left = left;
      *best_right = right;
      found = true;
    }
  }
  return found;
}

double LegacyBestSplitInfoGain(const std::vector<double>& values,
                               const std::vector<uint8_t>& labels,
                               uint32_t num_classes) {
  std::vector<uint32_t> left, right;
  if (!LegacyBestBinarySplit(values, labels, num_classes, &left, &right)) {
    return 0.0;
  }
  std::vector<uint32_t> total(num_classes, 0);
  for (uint8_t l : labels) ++total[l];
  return InformationGain(total, {left, right});
}

double LegacyBestSplitChiSquare(const std::vector<double>& values,
                                const std::vector<uint8_t>& labels,
                                uint32_t num_classes) {
  std::vector<uint32_t> left, right;
  if (!LegacyBestBinarySplit(values, labels, num_classes, &left, &right)) {
    return 0.0;
  }
  return ChiSquare({left, right});
}

// ---- Identity checks. -----------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameCuts(const ContinuousDataset& train,
                    const EntropyDiscretizer::Options& options) {
  const LegacyCuts want = LegacyFit(train, options);
  const Discretization got = EntropyDiscretizer(options).Fit(train);
  ASSERT_EQ(got.selected_genes(), want.genes);
  for (uint32_t s = 0; s < want.genes.size(); ++s) {
    const std::vector<double>& cuts = got.cuts(s);
    ASSERT_EQ(cuts.size(), want.cuts[s].size()) << "gene " << want.genes[s];
    EXPECT_EQ(std::memcmp(cuts.data(), want.cuts[s].data(),
                          cuts.size() * sizeof(double)),
              0)
        << "gene " << want.genes[s];
  }
}

class CutIdentityTest : public ::testing::TestWithParam<DatasetProfile> {};

TEST_P(CutIdentityTest, FitCutsAreBitIdentical) {
  const GeneratedData data = GenerateMicroarray(GetParam());
  ExpectSameCuts(data.train, EntropyDiscretizer::Options());
}

/// Both gene scores of every gene of `train` equal the legacy path's.
void ExpectSameGeneScores(const ContinuousDataset& train) {
  std::vector<uint8_t> labels(train.num_rows());
  for (RowId r = 0; r < train.num_rows(); ++r) labels[r] = train.label(r);
  for (GeneId g = 0; g < train.num_genes(); ++g) {
    const std::vector<double> column = train.GeneColumn(g);
    const double want =
        LegacyBestSplitInfoGain(column, labels, train.num_classes());
    const double got = BestSplitInfoGain(column, labels, train.num_classes());
    ASSERT_TRUE(SameBits(want, got)) << "gene " << g << ": " << want
                                     << " vs " << got;
    const double want_chi =
        LegacyBestSplitChiSquare(column, labels, train.num_classes());
    const double got_chi =
        BestSplitChiSquare(column, labels, train.num_classes());
    ASSERT_TRUE(SameBits(want_chi, got_chi))
        << "gene " << g << ": " << want_chi << " vs " << got_chi;
  }
}

TEST_P(CutIdentityTest, BestSplitInfoGainIsBitIdentical) {
  const GeneratedData data = GenerateMicroarray(GetParam());
  const ContinuousDataset& train = data.train;
  std::vector<uint8_t> labels(train.num_rows());
  for (RowId r = 0; r < train.num_rows(); ++r) labels[r] = train.label(r);
  for (GeneId g = 0; g < train.num_genes(); ++g) {
    const std::vector<double> column = train.GeneColumn(g);
    const double want =
        LegacyBestSplitInfoGain(column, labels, train.num_classes());
    const double got = BestSplitInfoGain(column, labels, train.num_classes());
    ASSERT_TRUE(SameBits(want, got)) << "gene " << g << ": " << want
                                     << " vs " << got;
  }
}

TEST_P(CutIdentityTest, BestSplitChiSquareIsBitIdentical) {
  // Figure 8's gene ranking (ExpectSameGeneScores checks the gain too).
  ExpectSameGeneScores(GenerateMicroarray(GetParam()).train);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, CutIdentityTest, ::testing::ValuesIn(PaperProfiles()),
    [](const ::testing::TestParamInfo<DatasetProfile>& info) {
      return info.param.name;
    });

TEST(CutIdentityOptionsTest, NonMdlAndDepthLimitedCutsAreBitIdentical) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    const GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(seed));
    EntropyDiscretizer::Options options;
    options.use_mdl = false;
    options.max_depth = 3;
    ExpectSameCuts(data.train, options);
    options.use_mdl = true;
    options.max_depth = 1;
    ExpectSameCuts(data.train, options);
  }
}

TEST(CutIdentityLargeSplitTest, RowsBeyondTheEntropyTableAreBitIdentical) {
  // 600 training rows: every boundary of the top-level scan has one side
  // above the table's 256-row bound, so both branches of the term lookup
  // meet in one scan, and the recursion crosses the bound too.
  DatasetProfile profile = DatasetProfile::Tiny(11);
  profile.num_genes = 200;
  profile.train_class1 = 320;
  profile.train_class0 = 280;
  const GeneratedData data = GenerateMicroarray(profile);
  ASSERT_EQ(data.train.num_rows(), 600u);
  EntropyDiscretizer::Options options;
  ExpectSameCuts(data.train, options);
  options.use_mdl = false;
  options.max_depth = 4;
  ExpectSameCuts(data.train, options);
  ExpectSameGeneScores(data.train);
}

/// Three classes over hand-built columns: duplicates, negatives, both
/// signed zeros, subnormals, infinities near and far, huge magnitudes, a
/// constant column and a column of zeros that differ only in sign.
ContinuousDataset EdgeValueDataset() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<std::vector<double>> pools = {
      {1.0, 2.0, 2.0, 3.0},                        // duplicates
      {-3.5, -1.0, -1.0, 0.25, 4.0},               // negatives
      {-0.0, 0.0, -0.0, 1.0, -1.0},                // signed zeros
      {kSub, -kSub, 2 * kSub, 0.0, -0.0, 3 * kSub},  // subnormals
      {-kInf, kInf, -2.0, 5.0, 5.0},               // infinities
      {7.0},                                       // constant
      {-0.0, 0.0},                                 // zeros only
      {kMax, -kMax, kMax / 2, 1e300, -1e300},      // huge magnitudes
  };
  ContinuousDataset data(static_cast<uint32_t>(pools.size()));
  data.set_class_names({"a", "b", "c"});
  std::mt19937_64 rng(20260517);
  for (int r = 0; r < 90; ++r) {
    const ClassLabel label = static_cast<ClassLabel>(r % 3);
    std::vector<double> row(pools.size());
    for (size_t g = 0; g < pools.size(); ++g) {
      // Class-skewed draws, so some cuts pass the MDL test.
      const std::vector<double>& pool = pools[g];
      const size_t skewed = (label * pool.size()) / 3 + rng() % 2;
      row[g] = pool[(rng() % 4 == 0 ? rng() : skewed) % pool.size()];
    }
    data.AddRow(row, label);
  }
  return data;
}

TEST(CutIdentityEdgeValueTest, HandBuiltColumnsAreBitIdentical) {
  const ContinuousDataset data = EdgeValueDataset();
  ASSERT_EQ(data.num_classes(), 3u);
  EntropyDiscretizer::Options options;
  ExpectSameCuts(data, options);
  options.use_mdl = false;
  ExpectSameCuts(data, options);
  // Every column but the constant one and the zeros-only one has a cut.
  EXPECT_EQ(EntropyDiscretizer(options).Fit(data).selected_genes(),
            (std::vector<GeneId>{0, 1, 2, 3, 4, 7}));
  ExpectSameGeneScores(data);
}

}  // namespace
}  // namespace topkrgs
