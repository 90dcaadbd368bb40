#ifndef TOPKRGS_MINE_FARMER_H_
#define TOPKRGS_MINE_FARMER_H_

#include <cstdint>

#include "core/dataset.h"
#include "mine/miner_common.h"
#include "util/timer.h"

namespace topkrgs {

/// Options of the FARMER baseline [Cong et al., SIGMOD 2004]: row
/// enumeration discovery of *all* rule groups (upper bounds) with the given
/// consequent that satisfy fixed minimum support and confidence thresholds.
struct FarmerOptions {
  /// Minimum rule support, counted over rows of the consequent class.
  uint32_t min_support = 1;
  /// Fixed minimum confidence in [0, 1]; 0 disables confidence pruning
  /// (the "minconf = 0" configuration of Figure 6).
  double min_confidence = 0.0;
  /// Minimum chi-square of the rule group's antecedent-vs-class 2x2 table
  /// (FARMER's second interestingness measure); applied at emission — the
  /// statistic is not anti-monotone, so it cannot prune the search.
  double min_chi_square = 0.0;

  enum class Backend {
    /// Explicit projected transposed tables — the original FARMER
    /// implementation the paper benchmarks against.
    kVector,
    /// "FARMER+prefix" of Figure 6: the same search over prefix trees.
    kPrefixTree,
  };
  Backend backend = Backend::kVector;
  bool use_backward_pruning = true;
  bool use_bound_pruning = true;
  /// Optional wall-clock budget; on expiry stats.timed_out is set and the
  /// group list is incomplete.
  Deadline deadline;
  /// Safety valve for benchmarks: stop after this many groups (0 = off).
  uint64_t max_groups = 0;
};

/// Runs FARMER and returns every qualifying rule group (upper bound).
MiningResult MineFarmer(const DiscreteDataset& data, ClassLabel consequent,
                        const FarmerOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_FARMER_H_
