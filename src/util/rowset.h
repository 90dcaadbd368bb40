// Density-adaptive row-set container for conditional projections.
//
// The row-enumeration miners carry one item set (or row set) per search
// node and repeatedly intersect it against the dense per-row/per-item
// bitmaps owned by the dataset. Near the root those sets are dense and
// the word-parallel Bitset kernels win; deep in the search they shrink
// to a handful of ids and walking a sorted id array beats scanning the
// whole universe. RowSet holds either representation behind one
// interface and switches per node by a density threshold (see
// PreferSparse below); the data-side indexes stay dense Bitsets.
//
// Determinism contract: both representations compute exact set algebra,
// iterate ascending, and hash identically (the sparse path streams the
// materialized word sequence through the same WordHasher as
// Bitset::Hash), so representation choice can never change mining
// output — only speed. tests/rowset_test.cc pins this property.
#ifndef TOPKRGS_UTIL_ROWSET_H_
#define TOPKRGS_UTIL_ROWSET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/hot_path.h"

namespace topkrgs {

// --- Sorted-id primitives -----------------------------------------------
//
// Shared by the sparse RowSet representation and the sorted positions
// lists in mine/transposed_table and mine/charm. All inputs must be
// ascending and duplicate-free.
namespace sorted {

/// Binary-search membership test.
bool Contains(const uint32_t* data, size_t n, uint32_t v);

/// |a ∩ b|. Uses a two-pointer merge for similar sizes and switches to
/// galloping (exponential probe + binary search) for the smaller side
/// when the lists are heavily skewed.
size_t IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb);

/// a ∩ b appended to *out (out is cleared first).
void Intersect(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
               std::vector<uint32_t>* out);

/// a \ b appended to *out (out is cleared first).
void Difference(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
                std::vector<uint32_t>* out);

}  // namespace sorted

/// A set of indices over a fixed universe, stored either as a dense
/// Bitset or as a sorted id array, with the cardinality cached (Count()
/// is O(1) in both representations).
class RowSet {
 public:
  enum class Repr : uint8_t { kDense, kSparse };

  RowSet() = default;

  /// Wraps an existing bitset without converting (always dense). Takes
  /// an rvalue so the full-bitmap copy a by-value sink hid is explicit
  /// at the call site: write DenseFrom(Bitset(bits)) to copy on purpose.
  static RowSet DenseFrom(Bitset&& bits);

  /// Takes an ascending duplicate-free id list (always sparse).
  static RowSet SparseFrom(std::vector<uint32_t> ids, size_t universe);

  /// Converts adaptively: sparse when PreferSparse says the id walk is
  /// cheaper than word scans at this density, dense otherwise.
  static RowSet FromBitset(const Bitset& bits);

  /// Density threshold: sparse wins when the id walk (≈2 cycles/id,
  /// data-dependent) undercuts the dense word scan even on the widest
  /// SIMD tier (≈0.5 cycles/word). Crossover sits near |S| ≈ words/4;
  /// we take the conservative side so dense SIMD keeps every case it
  /// could plausibly win: sparse iff |S| ≤ words(universe)/4, i.e.
  /// density ≤ 1/256.
  static bool PreferSparse(size_t count, size_t universe) {
    const size_t words = (universe + 63) / 64;
    return count <= words / 4;
  }

  Repr repr() const { return repr_; }
  bool is_dense() const { return repr_ == Repr::kDense; }
  bool is_sparse() const { return repr_ == Repr::kSparse; }

  size_t universe() const { return universe_; }
  /// Cardinality; cached, O(1).
  size_t Count() const { return count_; }
  bool None() const { return count_ == 0; }
  bool Any() const { return count_ != 0; }

  TKRGS_HOT bool Test(uint32_t pos) const;

  /// |*this ∩ other| against a dense bitmap of the same universe.
  TKRGS_HOT size_t IntersectCount(const Bitset& other) const;

  /// True iff *this ⊆ other. Sparse path is O(Count()).
  TKRGS_HOT bool IsSubsetOf(const Bitset& other) const;

  /// True iff the sets share an element.
  TKRGS_HOT bool Intersects(const Bitset& other) const;

  /// *this ∩ other as a new RowSet, re-deciding the representation of
  /// the (never larger) result by density.
  RowSet IntersectAdaptive(const Bitset& other) const;

  /// IntersectAdaptive into *out, reusing out's id-array / bitmap
  /// capacity: the zero-allocation steady state of the enumeration and
  /// probe loops. out must not alias this.
  TKRGS_HOT void IntersectAdaptiveInto(const Bitset& other, RowSet* out) const;

  /// Invokes fn(index) for every element in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (repr_ == Repr::kDense) {
      bits_.ForEach(std::forward<Fn>(fn));
    } else {
      for (const uint32_t id : ids_) fn(static_cast<size_t>(id));
    }
  }

  /// Elements as a sorted id vector.
  std::vector<uint32_t> ToVector() const;

  /// Dense copy of the set (for storage in Bitset-typed sinks).
  Bitset ToBitset() const;

  /// Equals Bitset::Hash() of the same elements over the same universe,
  /// for either representation.
  uint64_t Hash() const;

 private:
  Repr repr_ = Repr::kDense;
  size_t universe_ = 0;
  size_t count_ = 0;
  Bitset bits_;                // kDense payload
  std::vector<uint32_t> ids_;  // kSparse payload, ascending
};

}  // namespace topkrgs

#endif  // TOPKRGS_UTIL_ROWSET_H_
