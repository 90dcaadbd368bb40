#ifndef TOPKRGS_TESTS_TEST_UTIL_H_
#define TOPKRGS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "core/dataset.h"
#include "core/rule.h"
#include "util/random.h"

namespace topkrgs {
namespace testing_util {

/// Deterministic random discrete dataset for oracle-based property tests:
/// `num_rows` rows over `num_items` items, each item present with
/// probability `density`, labels split roughly in half.
inline DiscreteDataset RandomDataset(uint64_t seed, uint32_t num_rows,
                                     uint32_t num_items, double density) {
  Rng rng(seed);
  std::vector<std::vector<ItemId>> rows(num_rows);
  std::vector<ClassLabel> labels(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.NextBool(density)) rows[r].push_back(i);
    }
    labels[r] = rng.NextBool(0.5) ? 1 : 0;
  }
  // Guarantee at least one row per class so both consequents are testable.
  if (num_rows >= 2) {
    labels[0] = 1;
    labels[1] = 0;
  }
  return DiscreteDataset(num_items, std::move(rows), std::move(labels));
}

/// Deterministic wide, sparse dataset: `num_items` items (>= 512, so deep
/// item sets turn sparse), each row holding a few items of a small shared
/// pool spread over the universe plus one item of its own. The pool gives
/// rule groups with support > 1; the width makes MineTopkRGS count some
/// nodes per candidate and others from item postings (see
/// CountFreqFromPostings). Needs num_rows + 1 < num_items / 12.
inline DiscreteDataset WideSparseDataset(uint64_t seed, uint32_t num_rows,
                                         uint32_t num_items) {
  constexpr uint32_t kPool = 12;
  const uint32_t stride = num_items / kPool;
  Rng rng(seed);
  std::vector<std::vector<ItemId>> rows(num_rows);
  std::vector<ClassLabel> labels(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    rows[r].push_back(1 + r);  // below stride: never a pool item
    for (uint32_t j = 1; j <= kPool; ++j) {
      if (rng.NextBool(0.35)) rows[r].push_back(j * stride - 1);
    }
    labels[r] = rng.NextBool(0.5) ? 1 : 0;
  }
  if (num_rows >= 2) {
    labels[0] = 1;
    labels[1] = 0;
  }
  return DiscreteDataset(num_items, std::move(rows), std::move(labels));
}

/// Canonical form of a rule-group set for equality checks: sorted
/// (antecedent items, support, antecedent_support) triples.
struct CanonicalGroup {
  std::vector<uint32_t> items;
  uint32_t support;
  uint32_t antecedent_support;

  friend bool operator==(const CanonicalGroup&, const CanonicalGroup&) = default;
  friend bool operator<(const CanonicalGroup& a, const CanonicalGroup& b) {
    if (a.items != b.items) return a.items < b.items;
    if (a.support != b.support) return a.support < b.support;
    return a.antecedent_support < b.antecedent_support;
  }
};

inline std::vector<CanonicalGroup> Canonicalize(
    const std::vector<RuleGroup>& groups) {
  std::vector<CanonicalGroup> out;
  out.reserve(groups.size());
  for (const RuleGroup& g : groups) {
    out.push_back({g.antecedent.ToVector(), g.support, g.antecedent_support});
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Significance sequence of a per-row top-k list: (support, asup) pairs in
/// list order. Ties at the tail make the exact groups ambiguous, but the
/// significance sequence is uniquely determined by Definition 2.3.
template <typename List>
inline std::vector<std::pair<uint32_t, uint32_t>> SignificanceSeq(
    const List& list) {
  std::vector<std::pair<uint32_t, uint32_t>> seq;
  for (const auto& g : list) {
    seq.emplace_back(g->support, g->antecedent_support);
  }
  return seq;
}

inline std::vector<std::pair<uint32_t, uint32_t>> SignificanceSeqValues(
    const std::vector<RuleGroup>& list) {
  std::vector<std::pair<uint32_t, uint32_t>> seq;
  for (const auto& g : list) {
    seq.emplace_back(g.support, g.antecedent_support);
  }
  return seq;
}

}  // namespace testing_util
}  // namespace topkrgs

#endif  // TOPKRGS_TESTS_TEST_UTIL_H_
