#ifndef TOPKRGS_DISCRETIZE_ENTROPY_DISCRETIZER_H_
#define TOPKRGS_DISCRETIZE_ENTROPY_DISCRETIZER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/types.h"
#include "util/status.h"

namespace topkrgs {

/// One discretized item: an expression interval [lo, hi) of a gene.
/// The first interval of a gene has lo = -inf, the last hi = +inf.
struct ItemInfo {
  GeneId gene = 0;
  uint32_t interval = 0;  // index of the interval within the gene
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// The fitted result of entropy discretization: cut points per selected
/// gene and the item catalog. Genes for which the MDL criterion accepts no
/// cut are dropped entirely — discretization doubles as feature selection,
/// exactly as in the paper ("# Genes after Discretization" in Table 1).
class Discretization {
 public:
  /// Builds a discretization directly from per-gene cut points (used by
  /// Fit, model deserialization and tests). `genes` must be strictly
  /// ascending original gene ids; `cuts[i]` are the sorted cut points of
  /// genes[i] and must be non-empty.
  static Discretization FromCuts(std::vector<GeneId> genes,
                                 std::vector<std::vector<double>> cuts);

  uint32_t num_items() const { return static_cast<uint32_t>(items_.size()); }
  uint32_t num_selected_genes() const {
    return static_cast<uint32_t>(selected_genes_.size());
  }

  const std::vector<ItemInfo>& items() const { return items_; }
  const ItemInfo& item(ItemId id) const { return items_[id]; }
  /// Original gene ids of the selected genes, ascending.
  const std::vector<GeneId>& selected_genes() const { return selected_genes_; }
  /// Cut points of a selected gene (by position in selected_genes()).
  const std::vector<double>& cuts(uint32_t selected_index) const {
    return cuts_[selected_index];
  }

  /// Items of one sample given its full gene-value vector (one item per
  /// selected gene: the interval its value falls into).
  std::vector<ItemId> DiscretizeRow(const std::vector<double>& gene_values) const;

  /// Whether this discretization can be applied to `data`: every selected
  /// gene must exist in the dataset. A discretization loaded from a file
  /// must pass this gate before Apply — a persisted model referencing gene
  /// 9000 applied to a 100-gene matrix would otherwise read out of bounds.
  [[nodiscard]] Status CheckCompatible(const ContinuousDataset& data) const;

  /// Discretizes a whole continuous dataset with these cuts. The dataset
  /// must satisfy CheckCompatible (callers crossing a trust boundary check
  /// first; violating it is a programming error and aborts).
  DiscreteDataset Apply(const ContinuousDataset& data) const;

  /// Human-readable item description, e.g. "G17[-inf,994.0)".
  std::string ItemName(const ContinuousDataset& data, ItemId id) const;

 private:
  std::vector<GeneId> selected_genes_;
  std::vector<std::vector<double>> cuts_;       // parallel to selected_genes_
  std::vector<ItemId> gene_first_item_;         // parallel to selected_genes_
  std::vector<ItemInfo> items_;
};

/// Fayyad–Irani entropy minimization discretization with the MDL stopping
/// criterion, applied independently per gene.
class EntropyDiscretizer {
 public:
  struct Options {
    /// Maximum recursion depth per gene; 0 means unlimited. Depth d yields
    /// at most 2^d intervals.
    uint32_t max_depth = 0;
    /// When false, accepts every best-entropy cut down to max_depth without
    /// the MDL test (used only by tests/ablations).
    bool use_mdl = true;
  };

  EntropyDiscretizer() : options_() {}
  explicit EntropyDiscretizer(const Options& options) : options_(options) {}

  /// Fits cuts on a training dataset.
  Discretization Fit(const ContinuousDataset& train) const;

 private:
  Options options_;
};

}  // namespace topkrgs

#endif  // TOPKRGS_DISCRETIZE_ENTROPY_DISCRETIZER_H_
