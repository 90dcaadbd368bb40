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
  /// shards themselves run sequentially so only one dense suffix dataset
  /// is ever resident.
  uint32_t threads = 1;
  /// Per-shard wall-clock budget; an expiry marks stats.timed_out and the
  /// merged output is then incomplete (never silently wrong).
  Deadline deadline;
};

/// One shard's mining output, remapped to GLOBAL coordinates: per_pos is
/// indexed by global canonical positive position (lists are empty below
/// the shard's begin_pos), every group's row_support is over original
/// global row ids, and list order — significance descending, canonical
/// discovery order within ties — is preserved for the merge's replay.
struct ShardResult {
  uint32_t shard_index = 0;
  std::vector<std::vector<RuleGroupPtr>> per_pos;
  MinerStats stats;
};

/// Materializes the dense suffix dataset shard `shard_index` mines: rows
/// at global canonical positions [begin_pos, num_rows), in that order
/// (every negative row is part of every suffix — canonical order is
/// class-dominant, so negatives all sort after the positives).
DiscreteDataset BuildSuffixDataset(const TransposedView& view,
                                   const ShardPlan& plan,
                                   uint32_t shard_index);

/// Mines one shard: builds the suffix dataset and the prefix containment
/// guard, runs MineTopkRGS under the plan's ShardHooks, and remaps the
/// result to global coordinates.
ShardResult MineShard(const TransposedView& view, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options);

}  // namespace topkrgs

#endif  // TOPKRGS_SCALE_SHARD_MINER_H_
