#ifndef TOPKRGS_MINE_MINER_COMMON_H_
#define TOPKRGS_MINE_MINER_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/rule.h"
#include "core/types.h"

namespace topkrgs {

/// Resolves a fractional minimum support against a class size: the paper's
/// minsup = frac·|C| rounded to the nearest integer, clamped to >= 1.
/// Rounding matters: frac = 0.7 on a 90-row class must give minsup 63, but
/// 0.7 * 90 is 62.99999999999999 in binary floating point, so a truncating
/// cast silently mines at minsup 62. Every frac-to-minsup conversion must
/// go through this helper.
inline uint32_t MinSupportFromFrac(double frac, uint32_t class_rows) {
  const long rounded = std::lround(frac * static_cast<double>(class_rows));
  return static_cast<uint32_t>(std::max<long>(1, rounded));
}

/// Counters shared by all miners; benchmark harnesses report these next to
/// wall-clock time so pruning effectiveness can be compared directly.
struct MinerStats {
  uint64_t nodes_visited = 0;
  uint64_t groups_emitted = 0;
  uint64_t pruned_backward = 0;
  uint64_t pruned_bounds = 0;
  // Always 0: no miner runs tasks. Read by nothing but the end-to-end
  // benchmark, which still reports them.
  uint64_t tasks_spawned = 0;
  uint64_t tasks_stolen = 0;
  // MineTopkRGS Step 10 frequency scans, and how many of them counted
  // from item postings rather than per candidate (CountFreqFromPostings).
  uint64_t freq_scans = 0;
  uint64_t postings_scans = 0;
  // MineTopkRGS admission checks: positive rows whose k-th entry a check
  // read before it admitted or pruned (TopkSearch::Admits).
  uint64_t cut_rows_scanned = 0;
  double seconds = 0.0;
  bool timed_out = false;

  /// Accumulates another run's search counters and timeout flag; `seconds`
  /// is left alone (callers time the whole run themselves).
  void Add(const MinerStats& other) {
    nodes_visited += other.nodes_visited;
    groups_emitted += other.groups_emitted;
    pruned_backward += other.pruned_backward;
    pruned_bounds += other.pruned_bounds;
    tasks_spawned += other.tasks_spawned;
    tasks_stolen += other.tasks_stolen;
    freq_scans += other.freq_scans;
    postings_scans += other.postings_scans;
    cut_rows_scanned += other.cut_rows_scanned;
    timed_out = timed_out || other.timed_out;
  }
};

/// A generic mining result: the discovered rule groups (upper bounds) plus
/// search statistics.
struct MiningResult {
  std::vector<RuleGroup> groups;
  MinerStats stats;
};

/// Computes the class dominant order ORD of the rows (Definition 3.1):
/// all rows of `consequent` class first, then the rest; within each class,
/// ascending number of frequent items (the ordering refinement of §4.1.2).
/// `frequent_items` may be empty, in which case all items count.
/// Returns a permutation: position -> original RowId.
std::vector<RowId> ClassDominantOrder(const DiscreteDataset& data,
                                      ClassLabel consequent,
                                      const Bitset& frequent_items);

/// Number of rows of `consequent` class (they occupy the first positions of
/// the class dominant order).
uint32_t CountClassRows(const DiscreteDataset& data, ClassLabel consequent);

/// Items whose support within the `consequent` class is >= min_support.
/// This is Step 1 of MineTopkRGS: rule support is counted on consequent
/// rows only, so item frequency is too.
Bitset FrequentItems(const DiscreteDataset& data, ClassLabel consequent,
                     uint32_t min_support);

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_MINER_COMMON_H_
