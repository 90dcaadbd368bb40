#ifndef TOPKRGS_MINE_PREFIX_TREE_H_
#define TOPKRGS_MINE_PREFIX_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/types.h"

namespace topkrgs {

/// Prefix-tree representation of a (projected) transposed table (§4.2).
///
/// Every transposed tuple — the set of row positions containing one item —
/// is inserted as a path with its positions in *descending* enumeration
/// order, so the conditional tree of position p contains exactly the
/// positions ordered after p. Projecting node X's tree on a candidate row
/// yields the {X ∪ {row}}-projected transposed table; header counts give
/// freq(row) for Step 10 of MineTopkRGS without touching per-item bitsets,
/// and the total tuple count equals |I(X)|.
class PrefixTree {
 public:
  /// An empty placeholder tree (no positions, no tuples). Real trees come
  /// from BuildRoot/Conditional.
  PrefixTree() = default;

  /// Builds the root tree TT|_∅ over the frequent `items`; rows are numbered
  /// by their position in `order`.
  static PrefixTree BuildRoot(const DiscreteDataset& data,
                              const std::vector<RowId>& order,
                              const Bitset& items);

  /// The conditional (projected) tree of `pos`: tuples containing pos,
  /// truncated to positions strictly greater than pos.
  PrefixTree Conditional(uint32_t pos) const;

  /// Number of row positions in the underlying order.
  uint32_t num_positions() const {
    return static_cast<uint32_t>(headers_.size());
  }

  /// freq(pos): number of tuples (with multiplicity) containing pos.
  uint32_t freq(uint32_t pos) const { return headers_[pos].freq; }

  /// Total number of tuples in this (projected) table; at the tree for
  /// enumeration node X this equals |I(X)|.
  uint64_t tuple_count() const { return tuple_count_; }

  /// Number of allocated tree nodes (excluding the root); exposed for tests
  /// and the micro benchmarks.
  size_t node_count() const { return nodes_.empty() ? 0 : nodes_.size() - 1; }

  /// Invokes fn(pos, freq) for every position with freq > 0, ascending.
  template <typename Fn>
  void ForEachFrequentPosition(Fn&& fn) const {
    for (uint32_t pos = 0; pos < headers_.size(); ++pos) {
      if (headers_[pos].freq > 0) fn(pos, headers_[pos].freq);
    }
  }

  /// Structural invariants of the projected-table representation (§4.2),
  /// which the projection/conditional algebra silently relies on:
  ///   - node 0 is the synthetic root (parent -1); every other node links
  ///     to a valid parent and appears exactly once in its child list;
  ///   - positions strictly decrease along every root-to-leaf path (the
  ///     descending insertion order that makes Conditional(pos) contain
  ///     exactly the positions ordered after pos);
  ///   - a node's count covers the counts of its children (paths may end
  ///     at an inner node, so >=);
  ///   - header chain of pos visits exactly the nodes with that pos, and
  ///     headers_[pos].freq equals the chain's count sum (what freq()
  ///     serves to Step 10 of MineTopkRGS);
  ///   - tuple_count_ covers the first-level count sum (zero-length
  ///     tuples contribute to the total only).
  /// Returns false with the first violation in *error (when non-null).
  bool CheckInvariants(std::string* error = nullptr) const;

  /// TKRGS_DCHECKs CheckInvariants(); no-op in release builds. Called by
  /// BuildRoot on every fresh root tree (conditional trees are covered by
  /// tests — the per-edge DFS hot path stays check-free even in debug).
  void ValidateInvariants() const;

  /// Test-only backdoor for invariants_test to corrupt internal state and
  /// prove the DCHECKs fire; defined in the test, never in the library.
  struct TestPeer;

 private:
  struct Node {
    uint32_t pos = 0;
    uint32_t count = 0;
    int32_t parent = -1;
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    int32_t header_next = -1;  // chain of nodes with the same pos
  };
  struct Header {
    int32_t head = -1;
    uint32_t freq = 0;
  };

  explicit PrefixTree(uint32_t num_positions);

  /// Inserts a path of positions (descending order) with multiplicity
  /// `count`, sharing existing prefixes.
  void InsertPath(const uint32_t* path, size_t len, uint32_t count);

  std::vector<Node> nodes_;  // nodes_[0] is the synthetic root
  std::vector<Header> headers_;
  uint64_t tuple_count_ = 0;
};

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_PREFIX_TREE_H_
