#include "scale/topk_merge.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/rule.h"
#include "mine/topk_lists.h"
#include "util/timer.h"

namespace topkrgs {

MergedTopk MergeShardResults(const TransposedView& view, const ShardPlan& plan,
                             const std::vector<ShardResult>& shards) {
  // Slots are original row ids, so the consequent-class slots are
  // order[0, positives).
  const std::span<const RowId> positive_rows(plan.order.data(),
                                             plan.positives);
  TopkLists lists(view.num_rows, plan.k);
  // Shard order, then position order, then list order: the canonical
  // order of the single-shot insertion stream (DESIGN.md §14). Every shard
  // has closed its groups and shares each across the rows it covers, like
  // the miner, so the merge lists them as they are.
  for (const ShardResult& shard : shards) {
    const uint32_t begin = plan.shards[shard.shard_index].begin_pos;
    for (uint32_t i = 0; i < shard.per_pos.size(); ++i) {
      for (const RuleGroupPtr& group : shard.per_pos[i]) {
        lists.Insert(plan.order[begin + i], group);
      }
    }
  }

  MergedTopk merged;
  merged.per_row.assign(view.num_rows, {});
  for (const RowId row : positive_rows) {
    lists.Export(row, &merged.per_row[row]);
  }
  merged.effective_min_support =
      lists.EffectiveMinsup(plan.initial_min_support, positive_rows);
  return merged;
}

uint64_t TopkDigest(const std::vector<std::vector<RuleGroupPtr>>& per_row,
                    uint32_t effective_min_support) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t digest = mix(0x7468652d746b6473ull, effective_min_support);
  digest = mix(digest, per_row.size());
  for (size_t row = 0; row < per_row.size(); ++row) {
    const auto& list = per_row[row];
    if (list.empty()) continue;
    digest = mix(digest, row);
    digest = mix(digest, list.size());
    for (const RuleGroupPtr& group : list) {
      digest = mix(digest, group->support);
      digest = mix(digest, group->antecedent_support);
      digest = mix(digest, group->consequent);
      digest = mix(digest, group->antecedent.Hash());
      digest = mix(digest, group->row_support.Hash());
    }
  }
  return digest;
}

StatusOr<MergedTopk> MineShardedTopkRGS(const TransposedView& view,
                                        ClassLabel consequent,
                                        const ShardPlanOptions& plan_options,
                                        const ShardMineOptions& mine_options,
                                        ShardPlan* plan_out) {
  Stopwatch timer;
  auto plan_or = PlanShards(view, consequent, plan_options);
  if (!plan_or.ok()) return plan_or.status();
  const ShardPlan& plan = plan_or.value();

  MinerStats aggregate;
  std::vector<ShardResult> results;
  results.reserve(plan.shards.size());
  if (!plan.shards.empty()) {
    // Every shard mines the same dataset, scoped to its range of positions.
    const DiscreteDataset data = MaterializeDataset(view);
    for (uint32_t p = 0; p < plan.shards.size(); ++p) {
      ShardResult result = MineShard(data, plan, p, mine_options);
      aggregate.Add(result.stats);
      results.push_back(std::move(result));
    }
  }

  MergedTopk merged = MergeShardResults(view, plan, results);
  merged.stats = aggregate;
  merged.stats.seconds = timer.ElapsedSeconds();
  if (plan_out != nullptr) *plan_out = plan;
  return merged;
}

}  // namespace topkrgs
