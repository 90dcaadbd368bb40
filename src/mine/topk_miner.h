#ifndef TOPKRGS_MINE_TOPK_MINER_H_
#define TOPKRGS_MINE_TOPK_MINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/rule.h"
#include "mine/miner_common.h"
#include "util/bitset.h"
#include "util/rowset.h"
#include "util/status.h"
#include "util/timer.h"

namespace topkrgs {

/// Options of algorithm MineTopkRGS (Figure 3 of the paper). The pruning
/// toggles exist for the ablation benchmarks; all default to the paper's
/// configuration.
struct TopkMinerOptions {
  /// Number of covering rule groups kept per row.
  uint32_t k = 1;
  /// Minimum rule support, counted over rows of the consequent class.
  uint32_t min_support = 1;

  enum class RowOrder {
    /// Class dominant, ascending frequent-item count within each class
    /// (the paper's ORD, §4.1.2): the index's own order().
    kClassDominantWeighted,
    /// Class dominant, original row order within each class.
    kClassDominant,
    /// Original dataset order — for the ordering ablation only; the paper
    /// calls class dominance essential for confidence pruning.
    kNatural,
  };
  RowOrder row_order = RowOrder::kClassDominantWeighted;

  /// Top-k pruning with the dynamically derived minimum confidence (§4.1.1).
  bool use_topk_pruning = true;
  /// Loose/tight support+confidence upper bound pruning (Steps 9 and 11).
  bool use_bound_pruning = true;
  /// Backward pruning (Step 7, §4.1.2).
  bool use_backward_pruning = true;
  /// Seed per-row lists with single-item rule groups (first optimization of
  /// §4.1.1).
  bool seed_single_items = true;
  /// Raise minsup when all lists hold k rule groups of 100% confidence
  /// (second optimization of §4.1.1).
  bool dynamic_min_support = true;

  /// Optional wall-clock budget; on expiry the miner stops and flags
  /// stats.timed_out (results are then incomplete).
  Deadline deadline;

  /// Read by nothing: MineTopkRGS is one serial search. The field stays
  /// only because the end-to-end benchmark still assigns it.
  uint32_t threads = 1;

  /// Shard scope (src/scale/, DESIGN.md §14): the miner enumerates only
  /// rows at ORD positions >= begin_pos and descends only into the
  /// first-level subtrees rooted below position first_level_end. Rows
  /// before begin_pos stay in the dataset, so the Step 7 backward check
  /// sees them exactly as a single-shot search does — a node one of them
  /// contains belongs to an earlier shard. The defaults (0, UINT32_MAX)
  /// are stand-alone mining.
  /// Positions index the default ORD; Validate() rejects a scope under any
  /// other row order.
  uint32_t begin_pos = 0;
  uint32_t first_level_end = 0xffffffffu;

  /// Rejects contradictory option combinations instead of silently picking
  /// a winner: k == 0, or a shard scope with a row order other than the
  /// default kClassDominantWeighted.
  Status Validate() const;
};

/// Step 10 of MineTopkRGS needs freq(p) = |I(X) ∩ items(p)| for every
/// candidate row p of a node, and counts it whichever way costs fewer
/// word/id operations there:
///  - per candidate: one RowSet::IntersectCount of I(X) against each
///    candidate's row bitmap — |I(X)| probes when I(X) is sparse, one pass
///    over the item-universe words when it is dense;
///  - from postings: one walk over the row bitmap of every item of I(X),
///    bumping a per-row counter, and a second walk to reset it — twice the
///    items' total support plus their row-bitmap words.
/// Returns true when the postings walk is strictly cheaper. Both methods
/// count exactly, so the choice moves speed only, never output. The search
/// passes `items_sparse` and `item_words` at the full item-universe width,
/// although its rows span only the frequent columns: the choices, and so
/// the postings_scans counter, stay those of a full-width search. The answer
/// is monotone in `support_sum`: a caller may first ask with 0 (a lower
/// bound on the postings cost) and total the supports only when that
/// answer is true.
inline bool CountFreqFromPostings(uint64_t candidates, uint64_t items,
                                  bool items_sparse, uint64_t item_words,
                                  uint64_t support_sum, uint64_t row_words) {
  const uint64_t per_candidate =
      candidates * (items_sparse ? items : item_words);
  const uint64_t postings = 2 * (support_sum + items * row_words);
  return postings < per_candidate;
}

/// MineTopkRGS's immutable input (DESIGN.md §3): a dataset in the
/// frequent-item universe of one consequent class, and its row order ORD.
/// The search only ever intersects I(X) ⊆ the items that are frequent in
/// the consequent class, so it reads each row as a bitset over those
/// columns alone. Column c is original item item_id(c), and columns ascend
/// in item id. Item ids go back to the full universe (Lift) only where a
/// group leaves the search. Every search over one index (every shard of a
/// sharded run) reads the same ORD and column supports.
class FrequentItemIndex {
 public:
  /// The projection of `data` onto `frequent`, a bitset over its item
  /// universe, in the paper's ORD. Borrows `data`'s per-item row bitsets,
  /// and its per-row item bitsets too when every item is frequent, so
  /// `data` must outlive the index.
  FrequentItemIndex(const DiscreteDataset& data, ClassLabel consequent,
                    const Bitset& frequent);

  /// An index that owns its columns: `column_rows[c]` holds the rows (a
  /// bitset over the labels' rows) of item `item_ids[c]`, an ascending id
  /// below `universe`. `order` is the rows' ORD (ShardPlan::order).
  FrequentItemIndex(uint32_t universe, std::vector<ItemId> item_ids,
                    std::vector<Bitset> column_rows,
                    std::vector<ClassLabel> labels, ClassLabel consequent,
                    std::vector<RowId> order);

  // The row and column pointers point into heap buffers that a move
  // carries along, and a copy would not.
  FrequentItemIndex(FrequentItemIndex&&) = default;
  FrequentItemIndex& operator=(FrequentItemIndex&&) = default;
  FrequentItemIndex(const FrequentItemIndex&) = delete;
  FrequentItemIndex& operator=(const FrequentItemIndex&) = delete;

  // NOLINT(cast: the in-memory row space is uint32 by contract)
  uint32_t num_rows() const { return static_cast<uint32_t>(labels_.size()); }
  // NOLINT(cast: at most one column per item, and items <= 2^20)
  uint32_t num_columns() const { return static_cast<uint32_t>(item_ids_.size()); }
  /// Width of the original item universe.
  uint32_t universe() const { return universe_; }
  ClassLabel consequent() const { return consequent_; }
  ItemId item_id(uint32_t column) const { return item_ids_[column]; }
  ClassLabel label(RowId row) const { return labels_[row]; }
  const std::vector<ClassLabel>& labels() const { return labels_; }
  /// The columns `row` holds, as a bitset over num_columns().
  const Bitset& row(RowId row) const { return *rows_[row]; }
  /// The rows holding `column`, as a bitset over num_rows().
  const Bitset& column(uint32_t column) const { return *columns_[column]; }
  /// Column -> |column(c)|.
  const std::vector<uint32_t>& supports() const { return supports_; }
  /// ORD: position -> original row id.
  const std::vector<RowId>& order() const { return order_; }
  /// The inverse of order(): original row id -> position.
  const std::vector<uint32_t>& position_of() const { return position_of_; }

  /// `columns`, a set over num_columns(), as its items: a bitset over the
  /// full item universe.
  Bitset Lift(const RowSet& columns) const;

 private:
  /// Fills owned_rows_ from the columns and points rows_ at them.
  void TransposeColumns();
  /// Fills position_of_ from order_ and supports_ from the columns.
  void IndexOrderAndSupports();

  uint32_t universe_ = 0;
  ClassLabel consequent_ = 0;
  std::vector<ItemId> item_ids_;
  std::vector<ClassLabel> labels_;
  std::vector<Bitset> owned_rows_;     // empty when rows_ are borrowed
  std::vector<Bitset> owned_columns_;  // empty when columns_ are borrowed
  std::vector<const Bitset*> rows_;
  std::vector<const Bitset*> columns_;
  std::vector<uint32_t> supports_;
  std::vector<RowId> order_;
  std::vector<uint32_t> position_of_;
};

/// A discovered rule group shared between the rows it covers.
using RuleGroupPtr = std::shared_ptr<const RuleGroup>;

/// Result of MineTopkRGS.
struct TopkResult {
  /// per_row[r] = the top-k covering rule groups of row r, most significant
  /// first; empty for rows whose class is not the consequent. Lists may hold
  /// fewer than k entries when fewer covering groups meet minsup.
  std::vector<std::vector<RuleGroupPtr>> per_row;
  /// minsup after dynamic raises (== options.min_support unless raised).
  uint32_t effective_min_support = 0;
  MinerStats stats;

  /// All distinct rule groups across rows, in first-occurrence order of
  /// the per_row scan. Deduplication is by rowset equality; `hash_salt`
  /// perturbs the internal bucketing hash and MUST NOT change the result
  /// — the salt exists so tests can pin that hash-independence (the
  /// determinism linter's no-bucket-order-in-results rule, DESIGN.md §12).
  std::vector<RuleGroupPtr> DistinctGroups(uint64_t hash_salt = 0) const;

  /// RG_j (1-based j <= k): the distinct groups appearing as a top-j group
  /// of at least one row — the rule-group sets RCBT builds classifier CL_j
  /// from (§5.2). Same ordering and hash_salt contract as DistinctGroups.
  std::vector<RuleGroupPtr> GroupsAtRank(uint32_t j,
                                         uint64_t hash_salt = 0) const;

  /// Invariants the miner promises about its output, given the k it ran
  /// with: every per-row list holds at most k pointer-distinct groups,
  /// sorted most-significant-first (ties broken arbitrarily but order
  /// non-increasing), every listed group covers its row (its row_support
  /// contains the row) and itself satisfies RuleGroup::CheckInvariants.
  /// Returns false with the first violation in *error (when non-null).
  bool CheckInvariants(uint32_t k, std::string* error = nullptr) const;

  /// TKRGS_DCHECKs CheckInvariants(k); no-op in release. MineTopkRGS
  /// validates its own result through this before returning.
  void ValidateInvariants(uint32_t k) const;
};

/// Mines the top-k covering rule groups for every row of `data` whose class
/// is `consequent` (algorithm MineTopkRGS, Figure 3). Step 1 finds the
/// frequent items, and the search runs over their FrequentItemIndex.
TopkResult MineTopkRGS(const DiscreteDataset& data, ClassLabel consequent,
                       const TopkMinerOptions& options);

/// The same search over a prepared index, for its consequent. Its columns
/// must be exactly the items whose support within that class reaches
/// max(1, options.min_support), as FrequentItems computes them.
TopkResult MineTopkRGS(const FrequentItemIndex& index,
                       const TopkMinerOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_TOPK_MINER_H_
