#ifndef TOPKRGS_SCALE_TOPK_MERGE_H_
#define TOPKRGS_SCALE_TOPK_MERGE_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "mine/miner_common.h"
#include "mine/topk_miner.h"
#include "scale/shard_miner.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "util/status.h"

namespace topkrgs {

/// The sharded engine's final output — same shape and same contents, bit
/// for bit, as single-shot MineTopkRGS on the materialized dataset
/// (TopkResult::per_row indexed by original row id, plus the recomputed
/// effective minsup). `stats` aggregates the per-shard search counters;
/// timed_out means some shard hit its deadline and the lists are
/// incomplete.
struct MergedTopk {
  std::vector<std::vector<RuleGroupPtr>> per_row;
  uint32_t effective_min_support = 0;
  MinerStats stats;
};

/// Merges per-shard results into the global per-row top-k in one pass:
/// each shard's final lists are replayed, shard → position → list order,
/// through the miner's own TopkLists. Shard 0's scope is the whole
/// dataset, so its lists already hold the seeds, the root group and the
/// closed seeds; shard p's list for a position is the top-k of the next
/// canonical segment of the single-shot insertion stream, and top-k with
/// first-arrival tie-breaking composes over concatenation. Duplicates a
/// later shard re-derives (seeds, the root group) collapse through the
/// identity-triple dedup. See DESIGN.md §14 for the argument.
MergedTopk MergeShardResults(const TransposedView& view, const ShardPlan& plan,
                             const std::vector<ShardResult>& shards);

/// Order- and content-sensitive digest of a top-k result: covers every
/// row's list order, each group's counts, antecedent and row support, and
/// the effective minsup. Stable across processes (no pointer or seed
/// dependence), so equal digests across shard counts — and against the
/// single-shot oracle — certify bit-identical output.
uint64_t TopkDigest(const std::vector<std::vector<RuleGroupPtr>>& per_row,
                    uint32_t effective_min_support);

/// End-to-end sharded mining: plan, materialize the dataset once, mine
/// each shard on it sequentially, merge. On success `plan_out`
/// (when non-null) receives the executed plan for reporting. Fails only
/// on planning errors (bad consequent, infeasible memory budget).
StatusOr<MergedTopk> MineShardedTopkRGS(const TransposedView& view,
                                        ClassLabel consequent,
                                        const ShardPlanOptions& plan_options,
                                        const ShardMineOptions& mine_options,
                                        ShardPlan* plan_out = nullptr);

}  // namespace topkrgs

#endif  // TOPKRGS_SCALE_TOPK_MERGE_H_
