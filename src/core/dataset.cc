#include "core/dataset.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "util/io.h"
#include "util/safe_math.h"

namespace topkrgs {

ContinuousDataset::ContinuousDataset(uint32_t num_genes)
    : num_genes_(num_genes) {
  gene_names_.reserve(num_genes);
  for (uint32_t g = 0; g < num_genes; ++g) {
    gene_names_.push_back("G" + std::to_string(g));
  }
}

void ContinuousDataset::AddRow(const std::vector<double>& values,
                               ClassLabel label) {
  TOPKRGS_CHECK(values.size() == num_genes_, "row width != num_genes");
  values_.insert(values_.end(), values.begin(), values.end());
  labels_.push_back(label);
  if (uint32_t{label} + 1 > num_classes_) {
    num_classes_ = uint32_t{label} + 1;
  }
}

std::vector<double> ContinuousDataset::GeneColumn(GeneId gene) const {
  std::vector<double> col(num_rows());
  for (RowId r = 0; r < num_rows(); ++r) col[r] = value(r, gene);
  return col;
}

std::vector<uint32_t> ContinuousDataset::ClassCounts() const {
  std::vector<uint32_t> counts(num_classes_, 0);
  for (ClassLabel l : labels_) ++counts[l];
  return counts;
}

Status ContinuousDataset::WriteTsv(const std::string& path) const {
  std::vector<std::string> lines;
  lines.reserve(num_rows() + 1);
  std::string header = "label";
  for (const auto& name : gene_names_) {
    header += '\t';
    header += name;
  }
  lines.push_back(std::move(header));
  for (RowId r = 0; r < num_rows(); ++r) {
    std::string line = std::to_string(int{labels_[r]});
    char buf[64];
    for (GeneId g = 0; g < num_genes_; ++g) {
      std::snprintf(buf, sizeof(buf), "\t%.17g", value(r, g));
      line += buf;
    }
    lines.push_back(std::move(line));
  }
  return WriteLines(path, lines);
}

StatusOr<ContinuousDataset> ContinuousDataset::ParseTsv(
    const std::vector<std::string>& lines) {
  if (lines.empty()) return Status::InvalidArgument("empty dataset file");

  const auto header = SplitString(lines[0], '\t');
  if (header.empty() || header[0] != "label") {
    return Status::InvalidArgument("missing 'label' header column");
  }
  // Untrusted width: a pathological header with > 2^32 columns must be
  // rejected, not truncated into a smaller (colliding) gene universe.
  auto num_genes_or =
      CheckedCast<uint32_t>(header.size() - 1, "gene column count");
  if (!num_genes_or.ok()) return num_genes_or.status();
  const uint32_t num_genes = num_genes_or.value();
  ContinuousDataset ds(num_genes);
  for (uint32_t g = 0; g < num_genes; ++g) {
    ds.set_gene_name(g, std::string(header[g + 1]));
  }
  std::vector<double> row(num_genes);
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto fields = SplitString(lines[i], '\t');
    if (fields.size() != header.size()) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " has wrong field count");
    }
    auto label_or = ParseUint(fields[0]);
    if (!label_or.ok()) return label_or.status();
    if (label_or.value() >= kMaxClasses) {
      return Status::InvalidArgument("class label out of range: " +
                                     std::string(fields[0]));
    }
    for (uint32_t g = 0; g < num_genes; ++g) {
      // Non-finite expression values would poison the entropy
      // discretizer (NaN != NaN breaks its equal-value boundary test).
      auto v = ParseFiniteDouble(fields[g + 1]);
      if (!v.ok()) return v.status();
      row[g] = v.value();
    }
    // NOLINT(cast: < kMaxClasses = 256 rejected above, fits ClassLabel)
    ds.AddRow(row, static_cast<ClassLabel>(label_or.value()));
  }
  if (ds.num_rows() == 0) {
    return Status::InvalidArgument("dataset has no data rows");
  }
  return ds;
}

StatusOr<ContinuousDataset> ContinuousDataset::ReadTsv(const std::string& path) {
  auto lines_or = ReadLines(path);
  if (!lines_or.ok()) return lines_or.status();
  return ParseTsv(lines_or.value());
}

DiscreteDataset::DiscreteDataset(uint32_t num_items,
                                 std::vector<std::vector<ItemId>> rows,
                                 std::vector<ClassLabel> labels)
    : num_items_(num_items), rows_(std::move(rows)), labels_(std::move(labels)) {
  TOPKRGS_CHECK(rows_.size() == labels_.size(), "rows/labels size mismatch");
  for (auto& row : rows_) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (ItemId item : row) {
      TOPKRGS_CHECK(item < num_items_, "item id out of range");
    }
  }
  for (ClassLabel l : labels_) {
    if (uint32_t{l} + 1 > num_classes_) {
      num_classes_ = uint32_t{l} + 1;
    }
  }
  BuildIndexes();
}

void DiscreteDataset::BuildIndexes() {
  const uint32_t n = num_rows();
  row_bitsets_.assign(n, Bitset(num_items_));
  item_rowsets_.assign(num_items_, Bitset(n));
  for (RowId r = 0; r < n; ++r) {
    for (ItemId item : rows_[r]) {
      row_bitsets_[r].Set(item);
      item_rowsets_[item].Set(r);
    }
  }
}

Bitset DiscreteDataset::ItemSupportSet(const Bitset& itemset) const {
  Bitset rows = Bitset::AllSet(num_rows());
  itemset.ForEach([&](size_t item) { rows.IntersectWith(item_rowsets_[item]); });
  return rows;
}

Bitset DiscreteDataset::RowSupportSet(const Bitset& rowset) const {
  Bitset items = Bitset::AllSet(num_items_);
  rowset.ForEach([&](size_t row) { items.IntersectWith(row_bitsets_[row]); });
  return items;
}

std::vector<uint32_t> DiscreteDataset::ClassCounts() const {
  std::vector<uint32_t> counts(num_classes_, 0);
  for (ClassLabel l : labels_) ++counts[l];
  return counts;
}

Bitset DiscreteDataset::ClassRowset(ClassLabel cls) const {
  Bitset rows(num_rows());
  for (RowId r = 0; r < num_rows(); ++r) {
    if (labels_[r] == cls) rows.Set(r);
  }
  return rows;
}

DiscreteDataset DiscreteDataset::FilterInfrequentItems(
    uint32_t min_support, std::vector<ItemId>* kept_items) const {
  std::vector<ItemId> remap(num_items_, kInvalidId);
  std::vector<ItemId> kept;
  for (ItemId i = 0; i < num_items_; ++i) {
    if (ItemSupport(i) >= min_support) {
      // NOLINT(cast: kept.size() < num_items_ <= kMaxItemUniverse)
      remap[i] = static_cast<ItemId>(kept.size());
      kept.push_back(i);
    }
  }
  std::vector<std::vector<ItemId>> new_rows(num_rows());
  for (RowId r = 0; r < num_rows(); ++r) {
    for (ItemId item : rows_[r]) {
      if (remap[item] != kInvalidId) new_rows[r].push_back(remap[item]);
    }
  }
  if (kept_items != nullptr) *kept_items = kept;
  // NOLINT(cast: kept.size() <= num_items_, a uint32)
  return DiscreteDataset(static_cast<uint32_t>(kept.size()),
                         std::move(new_rows), labels_);
}

DiscreteDataset DiscreteDataset::SelectRows(const std::vector<RowId>& rows) const {
  std::vector<std::vector<ItemId>> new_rows;
  std::vector<ClassLabel> new_labels;
  new_rows.reserve(rows.size());
  new_labels.reserve(rows.size());
  for (RowId r : rows) {
    TOPKRGS_CHECK(r < num_rows(), "SelectRows: row id out of range");
    new_rows.push_back(rows_[r]);
    new_labels.push_back(labels_[r]);
  }
  return DiscreteDataset(num_items_, std::move(new_rows), std::move(new_labels));
}

Status DiscreteDataset::WriteItemData(const std::string& path) const {
  std::vector<std::string> lines;
  lines.reserve(num_rows());
  for (RowId r = 0; r < num_rows(); ++r) {
    std::string line = std::to_string(int{labels_[r]});
    line += '\t';
    bool first = true;
    for (ItemId item : rows_[r]) {
      if (!first) line += ' ';
      line += std::to_string(item);
      first = false;
    }
    lines.push_back(std::move(line));
  }
  return WriteLines(path, lines);
}

Status ParseItemLine(std::string_view line, uint32_t num_items,
                     std::vector<ItemId>* items, ClassLabel* label) {
  const auto parts = SplitString(line, '\t');
  if (parts.size() != 2) {
    return Status::InvalidArgument("expected 'label<TAB>items': " +
                                   std::string(line));
  }
  auto label_or = ParseUint(parts[0]);
  if (!label_or.ok()) return label_or.status();
  if (label_or.value() >= kMaxClasses) {
    return Status::InvalidArgument("class label out of range: " +
                                   std::string(parts[0]));
  }
  items->clear();
  const uint64_t bound = num_items != 0 ? num_items : kMaxItemUniverse;
  for (std::string_view field : SplitString(parts[1], ' ')) {
    if (field.empty()) continue;
    auto item = ParseUint(field);
    if (!item.ok()) return item.status();
    if (item.value() >= bound) {
      return Status::InvalidArgument(
          num_items != 0 ? "item id exceeds the declared universe"
                         : "item id exceeds the supported universe");
    }
    // NOLINT(cast: item.value() < bound <= kMaxItemUniverse, checked above)
    items->push_back(static_cast<ItemId>(item.value()));
  }
  // NOLINT(cast: label < kMaxClasses == 256, checked above)
  *label = static_cast<ClassLabel>(label_or.value());
  return Status::OK();
}

StatusOr<DiscreteDataset> DiscreteDataset::ParseItemData(
    const std::vector<std::string>& lines, uint32_t num_items) {
  if (num_items > kMaxItemUniverse) {
    return Status::InvalidArgument("declared item universe implausibly large");
  }
  std::vector<std::vector<ItemId>> rows;
  std::vector<ClassLabel> labels;
  uint32_t max_item = 0;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    std::vector<ItemId> items;
    ClassLabel label = 0;
    Status parse = ParseItemLine(line, num_items, &items, &label);
    if (!parse.ok()) return parse;
    for (ItemId id : items) max_item = std::max(max_item, id);
    rows.push_back(std::move(items));
    labels.push_back(label);
  }
  if (rows.empty()) return Status::InvalidArgument("empty item dataset");
  const uint32_t universe = num_items != 0 ? num_items : max_item + 1;
  return DiscreteDataset(universe, std::move(rows), std::move(labels));
}

StatusOr<DiscreteDataset> DiscreteDataset::ReadItemData(const std::string& path,
                                                        uint32_t num_items) {
  auto lines_or = ReadLines(path);
  if (!lines_or.ok()) return lines_or.status();
  return ParseItemData(lines_or.value(), num_items);
}

ItemId RunningExampleItem(char name) {
  // NOLINT(cast: 'a'..'h' maps to 0..7)
  if (name >= 'a' && name <= 'h') return static_cast<ItemId>(name - 'a');
  if (name == 'o') return 8;
  if (name == 'p') return 9;
  TOPKRGS_CHECK(false, "unknown running-example item");
  return kInvalidId;
}

DiscreteDataset MakeRunningExampleDataset() {
  auto items = [](const char* names) {
    std::vector<ItemId> out;
    for (const char* p = names; *p != '\0'; ++p) {
      out.push_back(RunningExampleItem(*p));
    }
    return out;
  };
  // Figure 1(a): class C encoded as 1, ¬C as 0.
  std::vector<std::vector<ItemId>> rows = {
      items("abcde"), items("abcop"), items("cdefg"), items("cdefg"),
      items("efgho"),
  };
  std::vector<ClassLabel> labels = {1, 1, 1, 0, 0};
  return DiscreteDataset(10, std::move(rows), std::move(labels));
}

}  // namespace topkrgs
