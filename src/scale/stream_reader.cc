#include "scale/stream_reader.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "util/safe_math.h"

namespace topkrgs {

/// Incremental transposed-table builder: rows are appended one at a time
/// and folded straight into per-item postings. Because rows arrive in
/// ascending id order, each posting list is born sorted. Defined at
/// namespace scope (not anonymously) so StreamedTable's friend
/// declaration reaches it; it lives only in this translation unit.
class TransposedBuilder {
 public:
  explicit TransposedBuilder(uint32_t declared_items)
      : declared_items_(declared_items) {
    if (declared_items_ != 0) postings_.resize(declared_items_);
  }

  Status AppendRow(std::vector<ItemId>& items, ClassLabel label) {
    auto row_or = CheckedIndexU32(rows_, "row count");
    if (!row_or.ok()) return row_or.status();
    const uint32_t row = row_or.value();
    // Collapse duplicates within the row, exactly like the dense bitset
    // index construction would.
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    for (const ItemId item : items) {
      if (item >= postings_.size()) postings_.resize(item + 1);
      postings_[item].push_back(row);
    }
    labels_.push_back(label);
    num_classes_ = std::max<uint32_t>(num_classes_, label + 1u);
    ++rows_;
    return Status::OK();
  }

  StatusOr<StreamedTable> Finish() {
    if (rows_ == 0) return Status::InvalidArgument("empty item dataset");
    StreamedTable table;
    if (declared_items_ != 0) {
      table.num_items_ = declared_items_;
    } else {
      auto items_or = CheckedIndexU32(
          std::max<uint64_t>(postings_.size(), 1), "inferred item universe");
      if (!items_or.ok()) return items_or.status();
      table.num_items_ = items_or.value();
    }
    table.num_classes_ = num_classes_;
    table.labels_ = std::move(labels_);
    table.item_offsets_.reserve(table.num_items_ + 1);
    table.item_offsets_.push_back(0);
    uint64_t nnz = 0;
    for (uint32_t i = 0; i < table.num_items_; ++i) {
      if (i < postings_.size()) nnz += postings_[i].size();
      table.item_offsets_.push_back(nnz);
    }
    table.item_row_ids_.reserve(nnz);
    for (uint32_t i = 0; i < table.num_items_; ++i) {
      if (i >= postings_.size()) continue;
      table.item_row_ids_.insert(table.item_row_ids_.end(),
                                 postings_[i].begin(), postings_[i].end());
      postings_[i].clear();
      postings_[i].shrink_to_fit();
    }
    return table;
  }

 private:
  uint32_t declared_items_;
  uint64_t rows_ = 0;
  uint32_t num_classes_ = 0;
  std::vector<std::vector<uint32_t>> postings_;
  std::vector<ClassLabel> labels_;
};

namespace {

struct LineSink {
  TransposedBuilder* builder;
  uint32_t declared_items;
  std::vector<ItemId> items;  // reused scratch

  Status Consume(std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) return Status::OK();
    ClassLabel label = 0;
    Status parse = ParseItemLine(line, declared_items, &items, &label);
    if (!parse.ok()) return parse;
    return builder->AppendRow(items, label);
  }
};

}  // namespace

StatusOr<StreamedTable> StreamReader::ReadItemData(const std::string& path,
                                                   const Options& options) {
  if (options.num_items > kMaxItemUniverse) {
    return Status::InvalidArgument("declared item universe implausibly large");
  }
  if (options.chunk_bytes == 0) {
    return Status::InvalidArgument("chunk_bytes must be > 0");
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  TransposedBuilder builder(options.num_items);
  LineSink sink{&builder, options.num_items, {}};
  std::vector<char> chunk(options.chunk_bytes);
  std::string carry;  // unterminated tail of the previous chunk
  Status status = Status::OK();
  for (;;) {
    const size_t got = std::fread(chunk.data(), 1, chunk.size(), file);
    if (got == 0) break;
    size_t begin = 0;
    for (size_t i = 0; i < got; ++i) {
      if (chunk[i] != '\n') continue;
      std::string_view line(chunk.data() + begin, i - begin);
      if (!carry.empty()) {
        carry.append(line);
        status = sink.Consume(carry);
        carry.clear();
      } else {
        status = sink.Consume(line);
      }
      if (!status.ok()) break;
      begin = i + 1;
    }
    if (!status.ok()) break;
    carry.append(chunk.data() + begin, got - begin);
  }
  const bool read_error = status.ok() && std::ferror(file) != 0;
  std::fclose(file);
  if (!status.ok()) return status;
  if (read_error) return Status::IOError("read failed: " + path);
  if (!carry.empty()) {
    status = sink.Consume(carry);  // final line without trailing newline
    if (!status.ok()) return status;
  }
  return builder.Finish();
}

StatusOr<StreamedTable> StreamReader::ParseItemData(std::string_view text,
                                                    const Options& options) {
  if (options.num_items > kMaxItemUniverse) {
    return Status::InvalidArgument("declared item universe implausibly large");
  }
  TransposedBuilder builder(options.num_items);
  LineSink sink{&builder, options.num_items, {}};
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t end = text.find('\n', begin);
    const size_t stop = end == std::string_view::npos ? text.size() : end;
    Status status = sink.Consume(text.substr(begin, stop - begin));
    if (!status.ok()) return status;
    if (end == std::string_view::npos) break;
    begin = end + 1;
  }
  return builder.Finish();
}

DiscreteDataset MaterializeDataset(const TransposedView& view) {
  std::vector<std::vector<ItemId>> rows(view.num_rows);
  for (uint32_t item = 0; item < view.num_items; ++item) {
    const uint32_t* ids = view.rows_of(item);
    const size_t count = view.rows_count(item);
    for (size_t i = 0; i < count; ++i) {
      rows[ids[i]].push_back(item);
    }
  }
  std::vector<ClassLabel> labels(view.labels, view.labels + view.num_rows);
  return DiscreteDataset(view.num_items, std::move(rows), std::move(labels));
}

}  // namespace topkrgs
