#include "util/rowset.h"

#include <algorithm>
#include <functional>

#include "util/bitkernels.h"
#include "util/check.h"

namespace topkrgs {

namespace bk = bitkernels;

namespace sorted {
namespace {

/// First index in [lo, n) with data[index] >= v, probing exponentially
/// from lo before the binary search so short forward hops stay O(1).
size_t GallopLowerBound(const uint32_t* data, size_t n, size_t lo,
                        uint32_t v) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && data[hi] < v) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(
      std::lower_bound(data + lo, data + hi, v) - data);
}

// Below this size ratio the two-pointer merge beats galloping; with a
// heavier skew the log-probes on the long side win.
constexpr size_t kGallopSkew = 16;

}  // namespace

bool Contains(const uint32_t* data, size_t n, uint32_t v) {
  return std::binary_search(data, data + n, v);
}

size_t IntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  size_t count = 0;
  if (na * kGallopSkew < nb) {
    size_t j = 0;
    for (size_t i = 0; i < na; ++i) {
      j = GallopLowerBound(b, nb, j, a[i]);
      if (j == nb) break;
      if (b[j] == a[i]) {
        ++count;
        ++j;
      }
    }
    return count;
  }
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

void Intersect(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
               std::vector<uint32_t>* out) {
  out->clear();
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na * kGallopSkew < nb) {
    size_t j = 0;
    for (size_t i = 0; i < na; ++i) {
      j = GallopLowerBound(b, nb, j, a[i]);
      if (j == nb) break;
      if (b[j] == a[i]) {
        out->push_back(a[i]);
        ++j;
      }
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

void Difference(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
                std::vector<uint32_t>* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      out->push_back(a[i]);
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  for (; i < na; ++i) out->push_back(a[i]);
}

}  // namespace sorted

RowSet RowSet::DenseFrom(Bitset&& bits) {
  RowSet out;
  out.repr_ = Repr::kDense;
  out.universe_ = bits.size();
  out.count_ = bits.Count();
  out.bits_ = std::move(bits);
  return out;
}

RowSet RowSet::SparseFrom(std::vector<uint32_t> ids, size_t universe) {
  TKRGS_DCHECK_SORTED_UNIQUE(ids.begin(), ids.end(), std::less<uint32_t>(),
                             "sparse rowset ids must be ascending unique");
  TKRGS_DCHECK(ids.empty() || ids.back() < universe,
               "sparse rowset id outside universe");
  RowSet out;
  out.repr_ = Repr::kSparse;
  out.universe_ = universe;
  out.count_ = ids.size();
  out.ids_ = std::move(ids);
  return out;
}

RowSet RowSet::FromBitset(const Bitset& bits) {
  const size_t count = bits.Count();
  if (PreferSparse(count, bits.size())) {
    return SparseFrom(bits.ToVector(), bits.size());
  }
  RowSet out;
  out.repr_ = Repr::kDense;
  out.universe_ = bits.size();
  out.count_ = count;
  out.bits_ = bits;
  return out;
}

bool RowSet::Test(uint32_t pos) const {
  if (repr_ == Repr::kDense) return bits_.Test(pos);
  return sorted::Contains(ids_.data(), ids_.size(), pos);
}

size_t RowSet::IntersectCount(const Bitset& other) const {
  TOPKRGS_CHECK(universe_ == other.size(), "rowset universe mismatch");
  if (repr_ == Repr::kDense) return bits_.IntersectCount(other);
  size_t count = 0;
  for (const uint32_t id : ids_) count += other.Test(id) ? 1 : 0;
  return count;
}

bool RowSet::IsSubsetOf(const Bitset& other) const {
  TOPKRGS_CHECK(universe_ == other.size(), "rowset universe mismatch");
  if (repr_ == Repr::kDense) return bits_.IsSubsetOf(other);
  for (const uint32_t id : ids_) {
    if (!other.Test(id)) return false;
  }
  return true;
}

bool RowSet::Intersects(const Bitset& other) const {
  TOPKRGS_CHECK(universe_ == other.size(), "rowset universe mismatch");
  if (repr_ == Repr::kDense) return bits_.Intersects(other);
  for (const uint32_t id : ids_) {
    if (other.Test(id)) return true;
  }
  return false;
}

RowSet RowSet::IntersectAdaptive(const Bitset& other) const {
  TOPKRGS_CHECK(universe_ == other.size(), "rowset universe mismatch");
  if (repr_ == Repr::kSparse) {
    // The result only shrinks, so a sparse input stays sparse.
    std::vector<uint32_t> kept;
    kept.reserve(ids_.size());
    for (const uint32_t id : ids_) {
      if (other.Test(id)) kept.push_back(id);
    }
    return SparseFrom(std::move(kept), universe_);
  }
  Bitset result = Intersect(bits_, other);
  const size_t count = result.Count();
  if (PreferSparse(count, universe_)) {
    return SparseFrom(result.ToVector(), universe_);
  }
  RowSet out;
  out.repr_ = Repr::kDense;
  out.universe_ = universe_;
  out.count_ = count;
  out.bits_ = std::move(result);
  return out;
}

void RowSet::IntersectAdaptiveInto(const Bitset& other, RowSet* out) const {
  TOPKRGS_CHECK(universe_ == other.size(), "rowset universe mismatch");
  TKRGS_DCHECK(out != this, "IntersectAdaptiveInto must not alias its input");
  out->universe_ = universe_;
  if (repr_ == Repr::kSparse) {
    // The result only shrinks, so a sparse input stays sparse; refilling
    // out->ids_ in place keeps its capacity from earlier, larger probes.
    out->repr_ = Repr::kSparse;
    out->ids_.clear();
    for (const uint32_t id : ids_) {
      // NOLINT(hotpath: refills the caller's retained capacity — the
      // whole point of the Into form; amortized zero across probes)
      if (other.Test(id)) out->ids_.push_back(id);
    }
    out->count_ = out->ids_.size();
    return;
  }
  const size_t count = bits_.IntersectCount(other);
  if (PreferSparse(count, universe_)) {
    out->repr_ = Repr::kSparse;
    out->ids_.clear();
    out->ids_.reserve(count);  // NOLINT(hotpath: retained capacity)
    bits_.ForEach([&](size_t r) {
      // NOLINT(hotpath: within the reservation above; amortized zero)
      // NOLINT(cast: ForEach yields bit positions < universe, a uint32)
      if (other.Test(r)) out->ids_.push_back(static_cast<uint32_t>(r));
    });
    out->count_ = count;
    return;
  }
  out->repr_ = Repr::kDense;
  out->count_ = count;
  out->bits_.AssignIntersectionOf(bits_, other);
}

std::vector<uint32_t> RowSet::ToVector() const {
  if (repr_ == Repr::kDense) return bits_.ToVector();
  return ids_;
}

Bitset RowSet::ToBitset() const {
  if (repr_ == Repr::kDense) return bits_;
  Bitset out(universe_);
  for (const uint32_t id : ids_) out.Set(id);
  return out;
}

uint64_t RowSet::Hash() const {
  if (repr_ == Repr::kDense) return bits_.Hash();
  // Stream the word sequence the dense form would hold — zero words
  // included — through the same hasher, so both representations agree.
  const size_t words = (universe_ + 63) / 64;
  bk::WordHasher h(bk::kHashSeed ^ static_cast<uint64_t>(universe_));
  size_t i = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = 0;
    while (i < ids_.size() && ids_[i] / 64 == w) {
      word |= uint64_t{1} << (ids_[i] % 64);
      ++i;
    }
    h.Consume(word);
  }
  return h.Finish();
}

}  // namespace topkrgs
