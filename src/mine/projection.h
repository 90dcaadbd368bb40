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
/// the FARMER and CARPENTER baselines (the backends Figure 6 compares).
/// All expose the same contract:
///
///  * Positions(out): the candidate row positions present in this projection
///    (ascending). Cheap for all backends.
///  * Freq(pos): freq(pos) = number of transposed tuples of this projection
///    containing pos = |I(X) ∩ items(row)|. This is the "scan TT|_X" cost of
///    Step 10: the bitset backend pays an intersection-popcount per call,
///    the prefix-tree backend reads a header counter (its cost was paid once
///    when the conditional tree was built).
///  * Child(pos): the {X ∪ {pos}}-projected table.

/// Bitset-backed projection: candidates kept as an explicit position list;
/// frequencies computed against I(X) on demand. This mirrors the original
/// FARMER implementation (no prefix tree).
class BitsetProjection {
 public:
  BitsetProjection(const DiscreteDataset* data, const std::vector<RowId>* order)
      : data_(data), order_(order) {
    positions_.resize(order->size());
    for (uint32_t i = 0; i < positions_.size(); ++i) positions_[i] = i;
  }

  void Positions(std::vector<uint32_t>* out) const { *out = positions_; }

  /// ItemSet is Bitset or util/rowset.h's RowSet: anything exposing
  /// IntersectCount(const Bitset&). A sparse RowSet turns this scan from
  /// O(universe/64) words into O(|I(X)|) probes.
  template <typename ItemSet>
  TKRGS_HOT uint32_t Freq(uint32_t pos, const ItemSet& items) const {
    // Hot path — called once per (node, position) during enumeration.
    // NOLINT(cast: IntersectCount <= num_items <= kMaxItemUniverse = 2^20)
    return static_cast<uint32_t>(
        items.IntersectCount(data_->row_bitset((*order_)[pos])));
  }

  /// Child keeps the candidates strictly after `pos` that had nonzero
  /// frequency at the parent (zero-frequency rows share no item with I(X)
  /// and thus with any descendant antecedent either).
  BitsetProjection Child(uint32_t pos,
                         const std::vector<uint32_t>& live_positions) const {
    BitsetProjection child(data_, order_, Unpopulated{});
    child.positions_.reserve(live_positions.size());
    for (uint32_t p : live_positions) {
      if (p > pos) child.positions_.push_back(p);
    }
    return child;
  }

 private:
  struct Unpopulated {};
  BitsetProjection(const DiscreteDataset* data, const std::vector<RowId>* order,
                   Unpopulated)
      : data_(data), order_(order) {}

  const DiscreteDataset* data_;
  const std::vector<RowId>* order_;
  std::vector<uint32_t> positions_;
};

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

  template <typename ItemSet>
  TKRGS_HOT uint32_t Freq(uint32_t pos, const ItemSet& /*items*/) const {
    return freq_[pos];
  }

  VectorProjection Child(uint32_t pos,
                         const std::vector<uint32_t>& /*live_positions*/) const {
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

  template <typename ItemSet>
  TKRGS_HOT uint32_t Freq(uint32_t pos, const ItemSet& /*items*/) const {
    return tree_.freq(pos);
  }

  TreeProjection Child(uint32_t pos,
                       const std::vector<uint32_t>& /*live_positions*/) const {
    return TreeProjection(tree_.Conditional(pos));
  }

 private:
  PrefixTree tree_;
};

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_PROJECTION_H_
