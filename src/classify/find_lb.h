#ifndef TOPKRGS_CLASSIFY_FIND_LB_H_
#define TOPKRGS_CLASSIFY_FIND_LB_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/rule.h"

namespace topkrgs {

/// Options of algorithm FindLB (Figure 5): the search for the `nl`
/// shortest lower bound rules of a rule group, trying items in descending
/// discriminative-score order. It runs as a minimal-transversal search
/// (find_lb.cc) that returns the rules of the paper's breadth-first walk,
/// in the same order, whenever max_candidates does not cut that walk short.
struct FindLbOptions {
  /// Number of lower bounds requested (nl).
  uint32_t num_lower_bounds = 1;
  /// Maximum antecedent size searched; the paper observes real lower
  /// bounds contain 1-5 items.
  uint32_t max_depth = 5;
  /// Upper limit on leaf probes per window: full-size candidate
  /// combinations tested as lower bounds (safety valve for the
  /// exponential worst case).
  uint64_t max_candidates = 2000000;
};

/// Finds up to nl shortest lower bound rules of `group` (Lemma 5.1):
/// minimal sub-antecedents A' of the upper bound with R(A') == R(A).
/// `item_scores[i]` ranks item i (higher = more discriminative gene, tried
/// first); pass an empty vector to rank by per-item information gain
/// computed from `data`. Results are ordered shortest-first, then by score.
std::vector<Rule> FindLowerBounds(const DiscreteDataset& data,
                                  const RuleGroup& group,
                                  const std::vector<double>& item_scores,
                                  const FindLbOptions& options);

/// Enumerates the COMPLETE set of lower bounds of `group` — every minimal
/// sub-antecedent with the same support set — the full enumeration FARMER
/// [6] performs (§5.1 notes it can be huge on entropy-discretized data;
/// this is intended for analysis on small groups and for tests).
/// `max_bounds` caps the output (0 = unlimited); `max_depth` caps the
/// antecedent size searched.
std::vector<Rule> FindAllLowerBounds(const DiscreteDataset& data,
                                     const RuleGroup& group,
                                     uint32_t max_depth = 6,
                                     uint64_t max_bounds = 100000);

/// Discriminative score per item computed from the discrete data alone:
/// information gain of the item-presence split against the class labels.
/// Used when no continuous gene values (entropy scores) are available.
std::vector<double> ItemScoresFromDiscrete(const DiscreteDataset& data);

}  // namespace topkrgs

#endif  // TOPKRGS_CLASSIFY_FIND_LB_H_
