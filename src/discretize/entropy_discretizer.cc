#include "discretize/entropy_discretizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/stats.h"
#include "util/status.h"

namespace topkrgs {

Discretization Discretization::FromCuts(std::vector<GeneId> genes,
                                        std::vector<std::vector<double>> cuts) {
  TOPKRGS_CHECK(genes.size() == cuts.size(), "genes/cuts size mismatch");
  Discretization out;
  for (uint32_t s = 0; s < genes.size(); ++s) {
    TOPKRGS_CHECK(!cuts[s].empty(), "a selected gene needs >= 1 cut");
    TOPKRGS_CHECK(s == 0 || genes[s] > genes[s - 1],
                  "gene ids must be strictly ascending");
    TOPKRGS_CHECK(std::is_sorted(cuts[s].begin(), cuts[s].end()),
                  "cut points must be sorted");
    out.selected_genes_.push_back(genes[s]);
    out.gene_first_item_.push_back(static_cast<ItemId>(out.items_.size()));
    for (uint32_t interval = 0; interval <= cuts[s].size(); ++interval) {
      ItemInfo info;
      info.gene = genes[s];
      info.interval = interval;
      if (interval > 0) info.lo = cuts[s][interval - 1];
      if (interval < cuts[s].size()) info.hi = cuts[s][interval];
      out.items_.push_back(info);
    }
    out.cuts_.push_back(std::move(cuts[s]));
  }
  return out;
}

std::vector<ItemId> Discretization::DiscretizeRow(
    const std::vector<double>& gene_values) const {
  std::vector<ItemId> items;
  // NOLINT(hotpath: one output itemset per row, sized by selected genes)
  items.reserve(selected_genes_.size());
  for (uint32_t s = 0; s < selected_genes_.size(); ++s) {
    const double v = gene_values[selected_genes_[s]];
    const auto& cut = cuts_[s];
    // Interval index = number of cuts <= v (value v falls in [cut[i-1], cut[i])).
    const uint32_t idx = static_cast<uint32_t>(
        std::upper_bound(cut.begin(), cut.end(), v) - cut.begin());
    // NOLINT(hotpath: within the per-row reservation above)
    items.push_back(gene_first_item_[s] + idx);
  }
  return items;
}

Status Discretization::CheckCompatible(const ContinuousDataset& data) const {
  // selected_genes_ is strictly ascending, so the last id is the largest.
  // FailedPrecondition, not InvalidArgument: each input is well-formed on
  // its own; the pair is what's inconsistent.
  if (!selected_genes_.empty() && selected_genes_.back() >= data.num_genes()) {
    return Status::FailedPrecondition(
        "discretization references gene " +
        std::to_string(selected_genes_.back()) + " but the dataset has only " +
        std::to_string(data.num_genes()) + " genes");
  }
  return Status::OK();
}

DiscreteDataset Discretization::Apply(const ContinuousDataset& data) const {
  TOPKRGS_CHECK(CheckCompatible(data).ok(),
                "Apply on an incompatible dataset; validate with "
                "CheckCompatible at the ingestion boundary first");
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  rows.reserve(data.num_rows());
  labels.reserve(data.num_rows());
  std::vector<double> values(data.num_genes());
  for (RowId r = 0; r < data.num_rows(); ++r) {
    for (GeneId g = 0; g < data.num_genes(); ++g) values[g] = data.value(r, g);
    rows.push_back(DiscretizeRow(values));
    labels.push_back(data.label(r));
  }
  return DiscreteDataset(num_items(), std::move(rows), std::move(labels));
}

std::string Discretization::ItemName(const ContinuousDataset& data,
                                     ItemId id) const {
  const ItemInfo& info = items_[id];
  char buf[96];
  auto fmt = [](double v, char* out, size_t len) {
    if (std::isinf(v)) {
      std::snprintf(out, len, v < 0 ? "-inf" : "+inf");
    } else {
      std::snprintf(out, len, "%.4g", v);
    }
  };
  char lo[32], hi[32];
  fmt(info.lo, lo, sizeof(lo));
  fmt(info.hi, hi, sizeof(hi));
  std::snprintf(buf, sizeof(buf), "[%s,%s)", lo, hi);
  return data.gene_name(info.gene) + buf;
}

namespace {

/// Recursive Fayyad–Irani partitioning of rows [begin, end) of the sorted
/// (value, label) sequence. Appends accepted cut values to `cuts`.
class GeneSplitter {
 public:
  GeneSplitter(const std::vector<double>& sorted_values,
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
    // changes. Take the split minimizing conditional entropy.
    if (!BestBoundarySplit(values_.data() + begin, labels_.data() + begin, n,
                           total, &split_)) {
      return;  // constant values: no boundary
    }
    const size_t best_i = begin + split_.last_left;

    const double ent_s = Entropy(total);
    const double gain = ent_s - split_.entropy;
    if (options_.use_mdl) {
      // MDL acceptance (Fayyad & Irani 1993):
      //   gain > log2(n-1)/n + delta/n
      //   delta = log2(3^k - 2) - (k*Ent(S) - k1*Ent(S1) - k2*Ent(S2))
      const double k = ClassesPresent(total);
      const double k1 = ClassesPresent(split_.left);
      const double k2 = ClassesPresent(split_.right);
      const double ent1 = Entropy(split_.left);
      const double ent2 = Entropy(split_.right);
      const double delta = std::log2(std::pow(3.0, k) - 2.0) -
                           (k * ent_s - k1 * ent1 - k2 * ent2);
      const double threshold =
          (std::log2(static_cast<double>(n) - 1.0) + delta) /
          static_cast<double>(n);
      if (gain <= threshold) return;
    } else if (gain <= 0) {
      return;
    }

    // Cut at the midpoint between the boundary values. split_ is scratch
    // shared with the recursion below, so nothing reads it past here.
    cuts->push_back(0.5 * (values_[best_i] + values_[best_i + 1]));
    Split(begin, best_i + 1, depth + 1, cuts);
    Split(best_i + 1, end, depth + 1, cuts);
  }

  const std::vector<double>& values_;
  const std::vector<uint8_t>& labels_;
  const uint32_t num_classes_;
  const EntropyDiscretizer::Options& options_;
  BoundarySplit split_;  // the boundary scan's counters, reused per call
};

}  // namespace

Discretization EntropyDiscretizer::Fit(const ContinuousDataset& train) const {
  TOPKRGS_CHECK(train.num_rows() > 0, "cannot fit on empty dataset");
  std::vector<GeneId> genes;
  std::vector<std::vector<double>> gene_cuts;

  const uint32_t n = train.num_rows();
  // Per-gene buffers, reused for every gene: the row-major matrix is read
  // once per gene into `column`, which is sorted with the row labels.
  std::vector<double> column(n);
  std::vector<uint8_t> row_labels(n);
  for (uint32_t r = 0; r < n; ++r) row_labels[r] = train.label(r);
  SortScratch scratch;
  std::vector<double> sorted_values(n);
  std::vector<uint8_t> sorted_labels(n);
  GeneSplitter splitter(sorted_values, sorted_labels, train.num_classes(),
                        options_);

  for (GeneId g = 0; g < train.num_genes(); ++g) {
    for (uint32_t r = 0; r < n; ++r) column[r] = train.value(r, g);
    SortByValue(column.data(), row_labels.data(), n, &scratch,
                sorted_values.data(), sorted_labels.data());
    std::vector<double> cuts;
    splitter.Run(&cuts);
    if (cuts.empty()) continue;  // gene dropped: no MDL-accepted cut
    genes.push_back(g);
    gene_cuts.push_back(std::move(cuts));
  }
  return Discretization::FromCuts(std::move(genes), std::move(gene_cuts));
}

}  // namespace topkrgs
