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
    /// (the paper's ORD, §4.1.2).
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

  /// Worker threads. MineTopkRGS turns the first level of the
  /// row-enumeration tree into subtree tasks drained through work-stealing
  /// deques (owner-LIFO / thief-FIFO, with dynamic splitting once a worker
  /// starves), all sharing the per-row top-k pruning thresholds, which
  /// every admission check reads lock-free. 0 = one thread per hardware
  /// core (clamped to at least 1 — see ResolveThreadCount). Results are
  /// bit-for-bit deterministic regardless of the thread count (search
  /// statistics such as nodes_visited depend on pruning timing and are
  /// not).
  uint32_t threads = 1;

  /// Serial warm-up budget for the parallel miner: before any worker
  /// thread starts, the calling thread drains first-level subtree tasks in
  /// canonical order until it has visited this many enumeration nodes.
  /// Workers that start against a cold top-k heap explore subtrees that
  /// mature thresholds would prune, so without a warm-up the parallel
  /// search can visit several times the serial node count (the
  /// redundant-work ratio gated in bench/BENCH_topk.json). The heap needs
  /// at least k insertions per row list before its thresholds mean
  /// anything, so the auto budget scales with k; minings smaller than the
  /// budget simply finish serially, which is also the right call for
  /// wall-clock (a millisecond-scale search never amortizes thread
  /// startup). -1 = auto (64 * k nodes), 0 = no warm-up (every task is up
  /// for grabs immediately — tests use this to force heavy stealing),
  /// > 0 = explicit node budget. Has no effect at 1 worker.
  int64_t warmup_nodes = -1;

  /// The warm-up budget after resolving the -1 = auto convention.
  uint64_t ResolveWarmupNodes() const {
    if (warmup_nodes >= 0) return static_cast<uint64_t>(warmup_nodes);
    return 64ull * k;
  }

  /// Shard scope (src/scale/, DESIGN.md §14): the miner enumerates only
  /// rows at ORD positions >= begin_pos and fans out only the first-level
  /// subtrees rooted below position first_level_end. Rows before begin_pos
  /// stay in the dataset, so the Step 7 backward check sees them exactly as
  /// a single-shot search does — a node one of them contains belongs to an
  /// earlier shard. The defaults (0, UINT32_MAX) are stand-alone mining.
  /// Positions index the default ORD; Validate() rejects a scope under any
  /// other row order.
  uint32_t begin_pos = 0;
  uint32_t first_level_end = 0xffffffffu;

  /// Rejects contradictory option combinations instead of silently picking
  /// a winner: k == 0, or a shard scope with a row order other than the
  /// default kClassDominantWeighted.
  Status Validate() const;
};

/// Resolves a requested thread count to the number of workers to launch:
/// 0 means "one per hardware core" using `hardware_hint` (the caller
/// passes std::thread::hardware_concurrency()), clamped to >= 1 because
/// the standard allows hardware_concurrency() to return 0 when the core
/// count is unknowable. Any explicit request is returned untouched.
inline uint32_t ResolveThreadCount(uint32_t requested,
                                   uint32_t hardware_hint) {
  if (requested != 0) return requested;
  return hardware_hint >= 1 ? hardware_hint : 1;
}

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
/// count exactly, so the choice moves speed only, never output. The answer
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
/// is `consequent` (algorithm MineTopkRGS, Figure 3).
TopkResult MineTopkRGS(const DiscreteDataset& data, ClassLabel consequent,
                       const TopkMinerOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_TOPK_MINER_H_
