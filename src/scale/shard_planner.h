#ifndef TOPKRGS_SCALE_SHARD_PLANNER_H_
#define TOPKRGS_SCALE_SHARD_PLANNER_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "scale/stream_reader.h"
#include "util/bitset.h"
#include "util/status.h"

namespace topkrgs {

/// Inputs to shard planning. `min_support` is absolute, counted over
/// consequent-class rows (MinSupportFromFrac converts the paper's
/// fractional form).
struct ShardPlanOptions {
  uint32_t k = 1;
  uint32_t min_support = 1;
  /// Peak-RSS target for the whole sharded mining run. The planner sizes
  /// each shard's OWNED range so its result lists stay within a fraction
  /// of it, and rejects the run up front (InvalidArgument) when even the
  /// irreducible working set — the CSR table plus the one dense dataset
  /// every shard mines — cannot fit. 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
  /// Explicit shard count; 0 = derive from the budget (1 when unlimited).
  uint32_t shard_count = 0;
};

/// One shard: the half-open range of GLOBAL canonical positive positions
/// whose rule groups it owns. The shard enumerates the rows from begin_pos
/// on (all later positives plus every negative row) and fans out only the
/// first-level subtrees rooted below `first_level_end`; the backward check
/// against the rows before begin_pos hands every other node to an earlier
/// shard. See DESIGN.md §14 for why this makes each closed group the
/// property of exactly one shard.
struct ShardRange {
  uint32_t begin_pos = 0;
  uint32_t end_pos = 0;
  /// Position bound passed to TopkMinerOptions::first_level_end. Normally
  /// end_pos; UINT32_MAX (no limit: every first-level subtree,
  /// negative-rooted ones included) for the shard owning the earliest
  /// root-absorbed row, which is always the last planned shard.
  uint32_t first_level_end = 0;
};

/// The complete sharding decision: the global canonical row order (the
/// paper's ORD, recomputed from the transposed view without materializing
/// the dataset), the global frequent-item set, and the owned ranges.
struct ShardPlan {
  ClassLabel consequent = 0;
  uint32_t k = 1;
  /// max(1, options.min_support) — the miner's initial minsup convention.
  uint32_t initial_min_support = 1;
  std::vector<RowId> order;           // global position -> original row id
  std::vector<uint32_t> position_of;  // original row id -> global position
  uint32_t positives = 0;             // np: consequent-class row count
  Bitset frequent;                    // global frequent items
  /// Earliest canonical position of a row containing EVERY frequent item
  /// ("root-absorbed": such rows are in every closed rowset), UINT32_MAX
  /// if none. Shards whose range begins after it are never planned — that
  /// row would fail every one of their nodes on the backward check.
  uint32_t absorbed_min_pos = 0xffffffffu;
  std::vector<ShardRange> shards;  // empty when there is nothing to mine
  uint64_t estimated_peak_bytes = 0;
};

/// Plans sharded mining of `view` for `consequent`. Fails with
/// InvalidArgument on an out-of-range consequent or a memory budget too
/// small for the irreducible working set.
StatusOr<ShardPlan> PlanShards(const TransposedView& view,
                               ClassLabel consequent,
                               const ShardPlanOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_SCALE_SHARD_PLANNER_H_
