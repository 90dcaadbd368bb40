#ifndef TOPKRGS_SCALE_STREAM_READER_H_
#define TOPKRGS_SCALE_STREAM_READER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/types.h"
#include "util/safe_math.h"
#include "util/status.h"

namespace topkrgs {

/// A read-only, column(item)-major view of a discrete dataset: the
/// transposed table in CSR form. rows_of(i) is the ascending list of
/// global row ids containing item i. This is the one interchange shape of
/// src/scale/ — StreamedTable owns one in memory, MmapDataset maps one
/// from disk, and the shard planner/miner/merge all consume it without
/// caring which.
/// TKRGS_GSL_POINTER: a TransposedView never owns the arrays it points
/// into — clang's lifetime analysis treats it like a pointer, so a view
/// kept past its backing StreamedTable/MmapDataset is a -Wdangling error.
struct TKRGS_GSL_POINTER TransposedView {
  uint32_t num_items = 0;
  uint32_t num_rows = 0;
  uint32_t num_classes = 0;
  const ClassLabel* labels = nullptr;        // num_rows entries
  const uint64_t* item_offsets = nullptr;    // num_items + 1 entries
  const uint32_t* item_row_ids = nullptr;    // item_offsets[num_items] entries

  uint64_t nnz() const { return item_offsets[num_items]; }
  const uint32_t* rows_of(uint32_t item) const {
    return item_row_ids + item_offsets[item];
  }
  size_t rows_count(uint32_t item) const {
    return static_cast<size_t>(item_offsets[item + 1] - item_offsets[item]);
  }
};

/// The transposed table built incrementally by StreamReader. Owns its CSR
/// arrays; memory is O(nnz), never O(rows × items) — the row-major matrix
/// is never materialized.
class TKRGS_GSL_OWNER StreamedTable {
 public:
  uint32_t num_items() const { return num_items_; }
  uint32_t num_rows() const {
    // Bounded by construction: TransposedBuilder::AppendRow refuses to
    // grow past UINT32_MAX rows (CheckedIndexU32 on the row count).
    return static_cast<uint32_t>(labels_.size());  // NOLINT(cast: see above)
  }
  uint32_t num_classes() const { return num_classes_; }
  uint64_t nnz() const { return item_offsets_.empty() ? 0 : item_offsets_.back(); }
  const std::vector<ClassLabel>& labels() const TKRGS_LIFETIME_BOUND {
    return labels_;
  }

  TransposedView View() const TKRGS_LIFETIME_BOUND {
    TransposedView view;
    view.num_items = num_items_;
    view.num_rows = num_rows();
    view.num_classes = num_classes_;
    view.labels = labels_.data();
    view.item_offsets = item_offsets_.data();
    view.item_row_ids = item_row_ids_.data();
    return view;
  }

 private:
  friend class StreamReader;
  friend class TransposedBuilder;

  uint32_t num_items_ = 0;
  uint32_t num_classes_ = 0;
  std::vector<ClassLabel> labels_;
  std::vector<uint64_t> item_offsets_;
  std::vector<uint32_t> item_row_ids_;
};

/// Chunked reader for the item-data format ("label<TAB>item item ..."
/// lines, the WriteItemData/ParseItemData contract): the file is consumed
/// in fixed-size buffers and each complete row is folded into per-item
/// postings immediately, so peak memory is the transposed table plus one
/// chunk — independent of how large the row-major text is. Each line goes
/// through core/dataset.h's ParseItemLine, the parser of
/// DiscreteDataset::ParseItemData, so both accept the same files with the
/// same messages; an empty dataset is rejected too. Duplicate items within
/// a row are collapsed, exactly as the dense index construction does.
class StreamReader {
 public:
  struct Options {
    /// Item universe; 0 = infer as max seen id + 1 (like ParseItemData).
    uint32_t num_items = 0;
    /// Read granularity. The default keeps syscall counts low without
    /// holding more than ~1 MiB of raw text at a time.
    size_t chunk_bytes = 1u << 20;
  };

  static StatusOr<StreamedTable> ReadItemData(const std::string& path,
                                              const Options& options);
  static StatusOr<StreamedTable> ReadItemData(const std::string& path) {
    return ReadItemData(path, Options());
  }

  /// The same parse over an in-memory buffer (tests, fuzzing).
  static StatusOr<StreamedTable> ParseItemData(std::string_view text,
                                               const Options& options);
  static StatusOr<StreamedTable> ParseItemData(std::string_view text) {
    return ParseItemData(text, Options());
  }
};

/// Materializes a DiscreteDataset (dense row bitsets + item rowsets) from
/// a transposed view, preserving original row order. This is the bridge to
/// the in-memory miner — callers opt into the O(rows × items / 8) bitset
/// cost explicitly; MineShardedTopkRGS does this once per run.
DiscreteDataset MaterializeDataset(const TransposedView& view);

}  // namespace topkrgs

#endif  // TOPKRGS_SCALE_STREAM_READER_H_
