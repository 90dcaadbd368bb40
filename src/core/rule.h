#ifndef TOPKRGS_CORE_RULE_H_
#define TOPKRGS_CORE_RULE_H_

#include <cstdint>
#include <string>

#include "core/dataset.h"
#include "core/types.h"
#include "util/bitset.h"

namespace topkrgs {

/// An association rule A -> c where A is an itemset and c a class label.
/// support = |R(A ∪ c)|, antecedent_support = |R(A)|,
/// confidence = support / antecedent_support.
struct Rule {
  Bitset antecedent;
  ClassLabel consequent = 0;
  uint32_t support = 0;
  uint32_t antecedent_support = 0;

  double confidence() const {
    return antecedent_support == 0
               ? 0.0
               : static_cast<double>(support) / antecedent_support;
  }

  /// "{i3,i7} -> 1 (sup=5, conf=0.83)" style rendering for logs/examples.
  std::string ToString() const;
};

/// A rule group, represented by its unique upper bound rule (Lemma 2.1):
/// the maximal antecedent shared by every rule derived from the same
/// antecedent support set.
struct RuleGroup {
  /// Upper bound antecedent: I(R), the closure of the group.
  Bitset antecedent;
  /// Antecedent support set R over all rows (both classes).
  Bitset row_support;
  ClassLabel consequent = 0;
  /// Rows of `consequent` class in row_support.
  uint32_t support = 0;
  /// |row_support|.
  uint32_t antecedent_support = 0;

  double confidence() const {
    return antecedent_support == 0
               ? 0.0
               : static_cast<double>(support) / antecedent_support;
  }

  std::string ToString() const;

  /// Structural invariants every well-formed rule group satisfies
  /// (Lemma 2.1 ties the counts to the support set): support <=
  /// antecedent_support == |row_support| (so confidence lands in [0, 1]),
  /// and a non-empty support set for any group with support counted.
  /// Returns false and describes the first violation in *error (when
  /// non-null); never aborts — callers needing the abort use
  /// ValidateInvariants().
  bool CheckInvariants(std::string* error = nullptr) const;

  /// TKRGS_DCHECKs CheckInvariants() — aborts in DCHECK-enabled builds
  /// (Debug/asan/tsan presets), compiles to nothing in release.
  void ValidateInvariants() const;
};

/// Exact comparison of rule significances (Definition 2.2) without floating
/// point: confidence sup1/as1 vs sup2/as2 compared by cross-multiplication.
/// Returns +1 when (sup1, as1) is more significant, -1 when less, 0 on ties
/// (equal confidence and equal support).
/// Inline: the miner calls it once per scanned row and per list insert.
inline int CompareSignificance(uint32_t sup1, uint32_t as1, uint32_t sup2,
                               uint32_t as2) {
  // Confidence comparison sup1/as1 vs sup2/as2; a zero antecedent support
  // denotes a dummy entry with confidence 0.
  const uint64_t lhs = static_cast<uint64_t>(sup1) * as2;
  const uint64_t rhs = static_cast<uint64_t>(sup2) * as1;
  if (as1 == 0 || as2 == 0) {
    // Dummies: confidence 0 and support 0; fall through with conf ranks.
    const double c1 = as1 == 0 ? 0.0 : static_cast<double>(sup1) / as1;
    const double c2 = as2 == 0 ? 0.0 : static_cast<double>(sup2) / as2;
    if (c1 > c2) return 1;
    if (c1 < c2) return -1;
  } else {
    if (lhs > rhs) return 1;
    if (lhs < rhs) return -1;
  }
  if (sup1 > sup2) return 1;
  if (sup1 < sup2) return -1;
  return 0;
}

/// True iff rule group a is more significant than b (Definition 2.2).
bool MoreSignificant(const RuleGroup& a, const RuleGroup& b);

/// Computes the full RuleGroup whose antecedent support set is R(itemset):
/// closes the itemset against `data` and counts class support.
RuleGroup CloseItemset(const DiscreteDataset& data, const Bitset& itemset,
                       ClassLabel consequent);

}  // namespace topkrgs

#endif  // TOPKRGS_CORE_RULE_H_
