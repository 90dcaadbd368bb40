#ifndef TOPKRGS_CORE_DATASET_H_
#define TOPKRGS_CORE_DATASET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/bitset.h"
#include "util/status.h"

namespace topkrgs {

/// A continuous gene expression matrix: rows are tissue samples, columns are
/// genes, plus a class label per row. This is the raw input the paper's
/// pipeline starts from; discretization turns it into a DiscreteDataset.
class ContinuousDataset {
 public:
  ContinuousDataset() = default;
  /// Creates an empty dataset over `num_genes` genes with generated gene
  /// names ("G0", "G1", ...).
  explicit ContinuousDataset(uint32_t num_genes);

  // NOLINT(cast: the in-memory row space is uint32 by contract — the
  // out-of-core ingestion path (scale/stream_reader) rejects row counts
  // past UINT32_MAX via CheckedIndexU32 before a dataset is ever built)
  uint32_t num_rows() const { return static_cast<uint32_t>(labels_.size()); }
  uint32_t num_genes() const { return num_genes_; }
  uint32_t num_classes() const { return num_classes_; }

  double value(RowId row, GeneId gene) const {
    return values_[static_cast<size_t>(row) * num_genes_ + gene];
  }
  ClassLabel label(RowId row) const { return labels_[row]; }
  const std::string& gene_name(GeneId gene) const { return gene_names_[gene]; }
  const std::vector<std::string>& class_names() const { return class_names_; }

  void set_gene_name(GeneId gene, std::string name) {
    gene_names_[gene] = std::move(name);
  }
  void set_class_names(std::vector<std::string> names) {
    class_names_ = std::move(names);
  }

  /// Appends a row; `values` must have exactly num_genes() entries.
  void AddRow(const std::vector<double>& values, ClassLabel label);

  /// All values of one gene, in row order.
  std::vector<double> GeneColumn(GeneId gene) const;

  /// Number of rows per class label.
  std::vector<uint32_t> ClassCounts() const;

  /// Serializes as TSV: header "label\t<gene names...>", one row per line.
  [[nodiscard]] Status WriteTsv(const std::string& path) const;
  /// Parses the format produced by WriteTsv from in-memory lines — the
  /// ingestion boundary for untrusted matrices. Validates per-row field
  /// counts, labels representable as ClassLabel, finite expression values
  /// (a NaN would void the discretizer's equal-value boundary test and
  /// DiscretizeRow's binary search), and at least one data row.
  static StatusOr<ContinuousDataset> ParseTsv(
      const std::vector<std::string>& lines);
  /// ParseTsv over a file's contents.
  static StatusOr<ContinuousDataset> ReadTsv(const std::string& path);

 private:
  uint32_t num_genes_ = 0;
  uint32_t num_classes_ = 0;
  std::vector<double> values_;  // row-major, num_rows x num_genes
  std::vector<ClassLabel> labels_;
  std::vector<std::string> gene_names_;
  std::vector<std::string> class_names_;
};

/// A discretized dataset: every row is a set of items (gene expression
/// intervals) plus a class label. Precomputes the two mappings the miners
/// live on: per-row item bitsets and per-item row bitsets.
class DiscreteDataset {
 public:
  DiscreteDataset() = default;
  /// `rows[i]` lists the items of row i (need not be sorted); labels are
  /// parallel to rows.
  DiscreteDataset(uint32_t num_items, std::vector<std::vector<ItemId>> rows,
                  std::vector<ClassLabel> labels);

  // NOLINT(cast: the in-memory row space is uint32 by contract — the
  // out-of-core ingestion path (scale/stream_reader) rejects row counts
  // past UINT32_MAX via CheckedIndexU32 before a dataset is ever built)
  uint32_t num_rows() const { return static_cast<uint32_t>(labels_.size()); }
  uint32_t num_items() const { return num_items_; }
  uint32_t num_classes() const { return num_classes_; }

  ClassLabel label(RowId row) const { return labels_[row]; }
  const std::vector<ItemId>& row_items(RowId row) const { return rows_[row]; }
  /// Items of `row` as a bitset over the item universe.
  const Bitset& row_bitset(RowId row) const { return row_bitsets_[row]; }
  /// Rows containing `item` as a bitset over the row universe.
  const Bitset& item_rows(ItemId item) const { return item_rowsets_[item]; }
  /// Number of rows containing `item`.
  uint32_t ItemSupport(ItemId item) const {
    // NOLINT(cast: Count() <= num_rows, a uint32)
    return static_cast<uint32_t>(item_rowsets_[item].Count());
  }

  /// R(I'): the largest set of rows containing every item of `itemset`.
  /// An empty itemset is contained in every row.
  Bitset ItemSupportSet(const Bitset& itemset) const;

  /// I(R'): the largest itemset common to every row of `rowset`.
  /// By convention I(∅) is the full item universe.
  Bitset RowSupportSet(const Bitset& rowset) const;

  /// Number of rows per class label.
  std::vector<uint32_t> ClassCounts() const;

  /// Rows of the given class as a bitset.
  Bitset ClassRowset(ClassLabel cls) const;

  /// New dataset with only items whose support is >= min_support; item ids
  /// are remapped densely. `kept_items`, when non-null, receives the original
  /// item id of each new id.
  DiscreteDataset FilterInfrequentItems(uint32_t min_support,
                                        std::vector<ItemId>* kept_items) const;

  /// New dataset containing the given rows (in the given order).
  DiscreteDataset SelectRows(const std::vector<RowId>& rows) const;

  /// Writes the dataset in transactional form, the usual exchange format of
  /// itemset-mining datasets: one row per line, "label<TAB>item item ...".
  [[nodiscard]] Status WriteItemData(const std::string& path) const;
  /// Parses the format produced by WriteItemData from in-memory lines
  /// (ParseItemLine per non-empty line).
  /// `num_items` fixes the item universe; 0 infers it as max item id + 1.
  /// Validates labels representable as ClassLabel and bounds the (declared
  /// or inferred) universe by kMaxItemUniverse so a single hostile item id
  /// cannot force a multi-gigabyte index allocation.
  static StatusOr<DiscreteDataset> ParseItemData(
      const std::vector<std::string>& lines, uint32_t num_items = 0);
  /// ParseItemData over a file's contents.
  static StatusOr<DiscreteDataset> ReadItemData(const std::string& path,
                                                uint32_t num_items = 0);

 private:
  void BuildIndexes();

  uint32_t num_items_ = 0;
  uint32_t num_classes_ = 0;
  std::vector<std::vector<ItemId>> rows_;
  std::vector<ClassLabel> labels_;
  std::vector<Bitset> row_bitsets_;   // per row: items
  std::vector<Bitset> item_rowsets_;  // per item: rows
};

/// Builds the paper's Figure 1(a) running example (5 rows, items a..p mapped
/// to ids 0..15, class C=1 for r1..r3 and ¬C=0 for r4,r5). Used by unit
/// tests and the quickstart example.
DiscreteDataset MakeRunningExampleDataset();

/// Parses one item-data line, "label<TAB>item item ...", into `items`
/// (cleared first) and `label`. Item ids must lie below `num_items`, or
/// below kMaxItemUniverse when `num_items` is 0 (an inferred universe),
/// so that a single hostile id cannot force a multi-gigabyte index.
/// DiscreteDataset::ParseItemData and the streamed reader both parse with
/// it, so they accept the same files with the same messages.
[[nodiscard]] Status ParseItemLine(std::string_view line, uint32_t num_items,
                                   std::vector<ItemId>* items,
                                   ClassLabel* label);

/// Item ids for the running example's named items ('a' -> 0, ..., 'p' -> 15).
ItemId RunningExampleItem(char name);

}  // namespace topkrgs

#endif  // TOPKRGS_CORE_DATASET_H_
