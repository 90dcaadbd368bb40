#ifndef TOPKRGS_SCALE_SHARD_MINER_H_
#define TOPKRGS_SCALE_SHARD_MINER_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "mine/miner_common.h"
#include "mine/topk_miner.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "util/timer.h"

namespace topkrgs {

/// Per-shard mining knobs; the paper-configuration pruning toggles are
/// deliberately not exposed — sharding's bit-identity contract is proven
/// for the default configuration.
struct ShardMineOptions {
  /// Read by nothing: each shard is one serial search, and shards run one
  /// after another over one shared dataset. The field stays only because
  /// the end-to-end benchmark still assigns it.
  uint32_t threads = 1;
  /// Wall-clock budget of the whole sharded mine: one absolute deadline
  /// that every shard checks, not a budget per shard. An expiry marks
  /// stats.timed_out and the merged output is then incomplete (never
  /// silently wrong).
  Deadline deadline;
};

/// One shard's mining output: per_pos[i] is the list of the
/// consequent-class row at global canonical position begin_pos + i, for
/// every position up to plan.positives. Groups carry original row ids, and
/// list order — significance descending, canonical discovery order within
/// ties — is preserved for the merge's replay.
struct ShardResult {
  uint32_t shard_index = 0;
  std::vector<std::vector<RuleGroupPtr>> per_pos;
  MinerStats stats;
};

/// Materializes a dense dataset of the rows at global canonical positions
/// [begin_pos, num_rows) of shard `shard_index`, in that order (every
/// negative row is part of every suffix — canonical order is
/// class-dominant, so negatives all sort after the positives). The
/// library itself does not call it; benchmark code times it as the cost
/// of a per-shard copy.
DiscreteDataset BuildSuffixDataset(const TransposedView& view,
                                   const ShardPlan& plan,
                                   uint32_t shard_index);

/// The plan's frequent items of `view` as the index every shard mines,
/// read straight from the CSR postings: one row bitset per frequent item
/// and one bitset of frequent columns per row, in the plan's ORD
/// (ShardPlan::order). The infrequent items are never copied.
FrequentItemIndex ProjectPlanItems(const TransposedView& view,
                                   const ShardPlan& plan);

/// Mines shard `shard_index` of `plan` on `index`, the plan's frequent
/// items of the planned view in the plan's ORD (ProjectPlanItems):
/// MineTopkRGS scoped to the shard's range of ORD positions
/// (TopkMinerOptions::begin_pos / first_level_end).
ShardResult MineShard(const FrequentItemIndex& index, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options);

/// As above, projecting the plan's frequent items from `view`'s postings
/// for this one call — the index MineShardedTopkRGS builds once per run.
ShardResult MineShard(const TransposedView& view, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_SCALE_SHARD_MINER_H_
