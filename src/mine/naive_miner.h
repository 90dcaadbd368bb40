#ifndef TOPKRGS_MINE_NAIVE_MINER_H_
#define TOPKRGS_MINE_NAIVE_MINER_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/rule.h"

namespace topkrgs {

/// Exhaustive reference miner used as the test oracle. Enumerates every row
/// subset (2^n, so only for small datasets; aborts above 24 rows), keeps the
/// closed ones (X == R(I(X))), and derives rule groups / top-k covering
/// lists directly from the definitions. Deliberately simple and obviously
/// correct; never used outside tests and sanity checks.

/// All rule groups with the given consequent whose support (over consequent
/// rows) is >= min_support. Equivalently: all closed itemsets with class
/// support >= min_support. Groups are returned in no particular order.
std::vector<RuleGroup> NaiveRuleGroups(const DiscreteDataset& data,
                                       ClassLabel consequent,
                                       uint32_t min_support);

/// The top-k covering rule groups of every row (Definition 2.3), computed
/// by ranking the full NaiveRuleGroups output. per_row[r] is empty for rows
/// of other classes; lists are most-significant-first. Ties at the k-th
/// position are broken arbitrarily, exactly like the search algorithm.
std::vector<std::vector<RuleGroup>> NaiveTopkRGS(const DiscreteDataset& data,
                                                 ClassLabel consequent,
                                                 uint32_t min_support,
                                                 uint32_t k);

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_NAIVE_MINER_H_
