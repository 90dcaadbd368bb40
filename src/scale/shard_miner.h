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
  /// Worker threads INSIDE each shard (the PR 7 work-stealing pool);
  /// shards themselves run sequentially over one shared dataset.
  uint32_t threads = 1;
  /// Per-shard wall-clock budget; an expiry marks stats.timed_out and the
  /// merged output is then incomplete (never silently wrong).
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

/// Mines shard `shard_index` of `plan` on `data`, the materialized
/// dataset of the planned view: MineTopkRGS scoped to the shard's range of
/// ORD positions (TopkMinerOptions::begin_pos / first_level_end).
ShardResult MineShard(const DiscreteDataset& data, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options);

/// As above, materializing the dataset from `view` for this one call.
ShardResult MineShard(const TransposedView& view, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_SCALE_SHARD_MINER_H_
