#include "core/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/status.h"

namespace topkrgs {

namespace {

/// The entropy terms p·log2(p), p = c/t, for 1 <= c <= t. Totals up to
/// kMaxTotal (every paper profile's training split) are read from a table
/// built once at run time, row t holding c = 1..t; larger totals are
/// computed directly. Both take the same float steps (Direct), so a term's
/// bits do not depend on which is taken. The table is deliberately not
/// constexpr: a compile-time log2 is evaluated by the compiler's own
/// arithmetic, which may differ from the C library's by an ulp.
class EntropyTerms {
 public:
  static constexpr uint64_t kMaxTotal = 256;

  EntropyTerms() {
    for (uint64_t t = 1; t <= kMaxTotal; ++t) {
      for (uint64_t c = 1; c <= t; ++c) {
        terms_[RowStart(t) + c - 1] = Direct(c, t);
      }
    }
  }

  double Term(uint64_t c, uint64_t t) const {
    return t <= kMaxTotal ? terms_[RowStart(t) + c - 1] : Direct(c, t);
  }

 private:
  static constexpr uint64_t RowStart(uint64_t t) { return t * (t - 1) / 2; }

  static double Direct(uint64_t c, uint64_t t) {
    const double p = static_cast<double>(c) / static_cast<double>(t);
    return p * std::log2(p);
  }

  double terms_[kMaxTotal * (kMaxTotal + 1) / 2];
};

/// The one table, built on first use (thread-safe static initialization).
const EntropyTerms& Terms() {
  static const EntropyTerms terms;
  return terms;
}

/// Entropy of the histogram `counts[0..k)` whose counts sum to `total`.
inline double EntropyOf(const uint32_t* counts, size_t k, uint64_t total,
                        const EntropyTerms& terms) {
  double h = 0.0;
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] != 0) h -= terms.Term(counts[c], total);
  }
  return h;
}

/// All ones for a value whose sign bit is set, else zero (an arithmetic
/// shift, so no unsigned wrap-around).
inline uint64_t SignMask(uint64_t bits) {
  return std::bit_cast<uint64_t>(std::bit_cast<int64_t>(bits) >> 63);
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// The order-preserving key of a double: flip the sign bit of a
/// non-negative value and every bit of a negative one, so unsigned key
/// order is numeric order (-0.0 just below +0.0).
inline uint64_t SortKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits ^ (SignMask(bits) | kSignBit);
}

inline double FromSortKey(uint64_t key) {
  return std::bit_cast<double>(key ^ (~SignMask(key) | kSignBit));
}

}  // namespace

double Entropy(const std::vector<uint32_t>& counts) {
  uint64_t total = 0;
  for (uint32_t c : counts) total += c;
  if (total == 0) return 0.0;
  return EntropyOf(counts.data(), counts.size(), total, Terms());
}

double PartitionEntropy(const std::vector<std::vector<uint32_t>>& partitions) {
  uint64_t total = 0;
  for (const auto& part : partitions) {
    for (uint32_t c : part) total += c;
  }
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& part : partitions) {
    uint64_t part_total = 0;
    for (uint32_t c : part) part_total += c;
    if (part_total == 0) continue;
    h += (static_cast<double>(part_total) / static_cast<double>(total)) *
         Entropy(part);
  }
  return h;
}

void SortByValue(const double* values, const uint8_t* labels, size_t n,
                 SortScratch* scratch, double* sorted_values,
                 uint8_t* sorted_labels) {
  if (scratch->keys[0].size() < n) {
    for (int b = 0; b < 2; ++b) {
      // NOLINT(hotpath: grows only when n exceeds every earlier column)
      scratch->keys[b].resize(n);
      // NOLINT(hotpath: grows only when n exceeds every earlier column)
      scratch->labels[b].resize(n);
    }
  }
  if (n == 0) return;

  // One read pass builds the keys and all eight byte histograms.
  uint32_t (&counts)[8][256] = scratch->counts;
  std::memset(counts, 0, sizeof(counts));
  uint64_t* keys = scratch->keys[0].data();
  for (size_t i = 0; i < n; ++i) {
    keys[i] = SortKey(values[i]);
    for (int d = 0; d < 8; ++d) ++counts[d][(keys[i] >> (8 * d)) & 0xFF];
  }
  // One stable scatter per byte, lowest first, ping-ponging between the
  // two scratch buffers; the first pass reads the caller's labels.
  int in = 0;
  const uint8_t* in_labels = labels;
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    uint32_t* count = counts[d];
    const uint64_t* src = scratch->keys[in].data();
    if (count[(src[0] >> shift) & 0xFF] == n) continue;  // constant byte
    uint32_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    uint64_t* dst = scratch->keys[1 - in].data();
    uint8_t* dst_labels = scratch->labels[1 - in].data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t pos = count[(src[i] >> shift) & 0xFF]++;
      dst[pos] = src[i];
      dst_labels[pos] = in_labels[i];
    }
    in = 1 - in;
    in_labels = dst_labels;
  }
  const uint64_t* sorted_keys = scratch->keys[in].data();
  for (size_t i = 0; i < n; ++i) sorted_values[i] = FromSortKey(sorted_keys[i]);
  std::memcpy(sorted_labels, in_labels, n);
}

bool BestBoundarySplit(const double* values, const uint8_t* labels, size_t n,
                       const std::vector<uint32_t>& total,
                       BoundarySplit* split) {
  const EntropyTerms& terms = Terms();
  const size_t k = total.size();
  // NOLINT(hotpath: num_classes counters; a reused split allocates once)
  split->left.assign(k, 0);
  // NOLINT(hotpath: num_classes counters; a reused split allocates once)
  split->right.assign(total.begin(), total.end());
  uint32_t* left = split->left.data();
  uint32_t* right = split->right.data();
  const double dn = static_cast<double>(n);
  bool found = false;
  for (size_t i = 0; i + 1 < n; ++i) {
    ++left[labels[i]];
    --right[labels[i]];
    if (values[i] == values[i + 1]) continue;
    // PartitionEntropy({left, right}): both sides are non-empty here.
    const uint64_t tl = i + 1;
    const uint64_t tr = n - tl;
    const double cond =
        (static_cast<double>(tl) / dn) * EntropyOf(left, k, tl, terms) +
        (static_cast<double>(tr) / dn) * EntropyOf(right, k, tr, terms);
    if (!found || cond < split->entropy) {
      split->entropy = cond;
      split->last_left = i;
      found = true;
    }
  }
  if (!found) return false;
  // Rebuild the two histograms of the best cut once.
  std::fill(left, left + k, 0);
  for (size_t i = 0; i <= split->last_left; ++i) ++left[labels[i]];
  for (size_t c = 0; c < k; ++c) right[c] = total[c] - left[c];
  return true;
}

double InformationGain(const std::vector<uint32_t>& total,
                       const std::vector<std::vector<uint32_t>>& partitions) {
  return Entropy(total) - PartitionEntropy(partitions);
}

double ChiSquare(const std::vector<std::vector<uint32_t>>& table) {
  if (table.empty()) return 0.0;
  const size_t cols = table[0].size();
  std::vector<uint64_t> row_totals(table.size(), 0);
  std::vector<uint64_t> col_totals(cols, 0);
  uint64_t grand = 0;
  for (size_t r = 0; r < table.size(); ++r) {
    TOPKRGS_CHECK(table[r].size() == cols, "ragged contingency table");
    for (size_t c = 0; c < cols; ++c) {
      row_totals[r] += table[r][c];
      col_totals[c] += table[r][c];
      grand += table[r][c];
    }
  }
  if (grand == 0) return 0.0;
  double chi = 0.0;
  for (size_t r = 0; r < table.size(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double expected = static_cast<double>(row_totals[r]) *
                              static_cast<double>(col_totals[c]) /
                              static_cast<double>(grand);
      if (expected <= 0.0) continue;
      const double diff = static_cast<double>(table[r][c]) - expected;
      chi += diff * diff / expected;
    }
  }
  return chi;
}

namespace {

/// Sorts (value, label) pairs and runs the boundary scan: the best binary
/// split by info gain. `total` receives the class histogram of `labels`.
/// Returns false when no split exists (constant feature).
bool BestBinarySplit(const std::vector<double>& values,
                     const std::vector<uint8_t>& labels, uint32_t num_classes,
                     std::vector<uint32_t>* total, BoundarySplit* split) {
  TOPKRGS_CHECK(values.size() == labels.size(), "values/labels size mismatch");
  total->assign(num_classes, 0);
  for (uint8_t l : labels) {
    TOPKRGS_CHECK(l < num_classes, "label out of range for num_classes");
    ++(*total)[l];
  }
  const size_t n = values.size();
  if (n < 2) return false;
  SortScratch scratch;
  std::vector<double> sorted_values(n);
  std::vector<uint8_t> sorted_labels(n);
  SortByValue(values.data(), labels.data(), n, &scratch, sorted_values.data(),
              sorted_labels.data());
  return BestBoundarySplit(sorted_values.data(), sorted_labels.data(), n,
                           *total, split);
}

}  // namespace

double BestSplitInfoGain(const std::vector<double>& values,
                         const std::vector<uint8_t>& labels,
                         uint32_t num_classes) {
  std::vector<uint32_t> total;
  BoundarySplit split;
  if (!BestBinarySplit(values, labels, num_classes, &total, &split)) {
    return 0.0;
  }
  return Entropy(total) - split.entropy;
}

double BestSplitChiSquare(const std::vector<double>& values,
                          const std::vector<uint8_t>& labels,
                          uint32_t num_classes) {
  std::vector<uint32_t> total;
  BoundarySplit split;
  if (!BestBinarySplit(values, labels, num_classes, &total, &split)) {
    return 0.0;
  }
  return ChiSquare({split.left, split.right});
}

}  // namespace topkrgs
