#ifndef TOPKRGS_MINE_PROJECTION_H_
#define TOPKRGS_MINE_PROJECTION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "mine/prefix_tree.h"
#include "util/hot_path.h"

namespace topkrgs {

/// The interchangeable encodings of a projected transposed table used by
/// the FARMER baseline (the backends Figure 6 compares).
/// All expose the same contract:
///
///  * Positions(out): the candidate row positions present in this projection
///    (ascending). Cheap for all backends.
///  * Freq(pos): freq(pos) = number of transposed tuples of this projection
///    containing pos = |I(X) ∩ items(row)|. This is the "scan TT|_X" cost of
///    Step 10; both backends read a counter filled in when the projection
///    was built.
///  * Child(pos): the {X ∪ {pos}}-projected table.

/// Explicit projected transposed tables: every tuple is a materialized
/// vector of the row positions after X. This mirrors the original FARMER
/// implementation ("in-memory pointers", no prefix tree, no packed bitsets);
/// projection re-scans and copies the surviving tuples, which is exactly
/// the cost the paper's prefix tree amortizes away.
class VectorProjection {
 public:
  VectorProjection(const DiscreteDataset* data, const std::vector<RowId>* order,
                   const Bitset& items)
      // NOLINT(cast: order->size() == num_rows, a uint32 by construction)
      : num_positions_(static_cast<uint32_t>(order->size())) {
    std::vector<uint32_t> position_of(data->num_rows());
    for (uint32_t pos = 0; pos < order->size(); ++pos) {
      position_of[(*order)[pos]] = pos;
    }
    freq_.assign(num_positions_, 0);
    items.ForEach([&](size_t item) {
      std::vector<uint32_t> tuple;
      // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
      data->item_rows(static_cast<ItemId>(item)).ForEach([&](size_t row) {
        tuple.push_back(position_of[row]);
      });
      std::sort(tuple.begin(), tuple.end());
      for (uint32_t p : tuple) ++freq_[p];
      tuples_.push_back(std::move(tuple));
    });
  }

  void Positions(std::vector<uint32_t>* out) const {
    out->clear();
    for (uint32_t pos = 0; pos < num_positions_; ++pos) {
      if (freq_[pos] > 0) out->push_back(pos);
    }
  }

  TKRGS_HOT uint32_t Freq(uint32_t pos) const { return freq_[pos]; }

  VectorProjection Child(uint32_t pos) const {
    VectorProjection child(num_positions_);
    for (const auto& tuple : tuples_) {
      if (!std::binary_search(tuple.begin(), tuple.end(), pos)) continue;
      std::vector<uint32_t> projected;
      for (uint32_t p : tuple) {
        if (p > pos) {
          projected.push_back(p);
          ++child.freq_[p];
        }
      }
      child.tuples_.push_back(std::move(projected));
    }
    return child;
  }

 private:
  explicit VectorProjection(uint32_t num_positions)
      : num_positions_(num_positions) {
    freq_.assign(num_positions_, 0);
  }

  uint32_t num_positions_ = 0;
  std::vector<std::vector<uint32_t>> tuples_;
  std::vector<uint32_t> freq_;
};

/// Prefix-tree-backed projection (§4.2): conditional trees share tuple
/// prefixes, so frequency counting is amortized across items.
class TreeProjection {
 public:
  /// Takes the tree by rvalue: every construction site hands over a
  /// freshly built tree, and the && makes any future copying caller
  /// spell out the copy instead of hiding it in a by-value sink.
  explicit TreeProjection(PrefixTree&& tree) : tree_(std::move(tree)) {}

  void Positions(std::vector<uint32_t>* out) const {
    out->clear();
    tree_.ForEachFrequentPosition(
        [out](uint32_t pos, uint32_t) { out->push_back(pos); });
  }

  TKRGS_HOT uint32_t Freq(uint32_t pos) const { return tree_.freq(pos); }

  TreeProjection Child(uint32_t pos) const {
    return TreeProjection(tree_.Conditional(pos));
  }

 private:
  PrefixTree tree_;
};

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_PROJECTION_H_
