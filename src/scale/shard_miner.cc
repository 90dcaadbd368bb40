#include "scale/shard_miner.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/bitset.h"
#include "util/check.h"

namespace topkrgs {

DiscreteDataset BuildSuffixDataset(const TransposedView& view,
                                   const ShardPlan& plan,
                                   uint32_t shard_index) {
  const uint32_t begin = plan.shards[shard_index].begin_pos;
  const uint32_t suffix_rows = view.num_rows - begin;
  const std::vector<uint32_t> position_of = InversePermutation(plan.order);
  std::vector<std::vector<ItemId>> rows(suffix_rows);
  for (uint32_t item = 0; item < view.num_items; ++item) {
    const uint32_t* ids = view.rows_of(item);
    const size_t count = view.rows_count(item);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t pos = position_of[ids[i]];
      if (pos >= begin) rows[pos - begin].push_back(item);
    }
  }
  std::vector<ClassLabel> labels(suffix_rows);
  for (uint32_t l = 0; l < suffix_rows; ++l) {
    labels[l] = view.labels[plan.order[begin + l]];
  }
  return DiscreteDataset(view.num_items, std::move(rows), std::move(labels));
}

FrequentItemIndex ProjectPlanItems(const TransposedView& view,
                                   const ShardPlan& plan) {
  std::vector<ItemId> item_ids;
  std::vector<Bitset> column_rows;
  plan.frequent.ForEach([&](size_t bit) {
    // NOLINT(cast: ForEach yields bit positions < num_items, an ItemId)
    const ItemId item = static_cast<ItemId>(bit);
    Bitset rows(view.num_rows);
    const uint32_t* ids = view.rows_of(item);
    const size_t count = view.rows_count(item);
    for (size_t i = 0; i < count; ++i) rows.Set(ids[i]);
    item_ids.push_back(item);
    column_rows.push_back(std::move(rows));
  });
  return FrequentItemIndex(
      view.num_items, std::move(item_ids), std::move(column_rows),
      std::vector<ClassLabel>(view.labels, view.labels + view.num_rows),
      plan.consequent, plan.order);
}

ShardResult MineShard(const FrequentItemIndex& index, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options) {
  const ShardRange& range = plan.shards[shard_index];
  // The planner starts no shard past the earliest root-absorbed row, so no
  // row before the scope holds every frequent item and the root group the
  // shard emits is the whole one.
  TKRGS_DCHECK_LE(range.begin_pos, plan.absorbed_min_pos,
                  "a shard scope begins past the earliest absorbed row");
  // The scope's positions index the plan's ORD.
  TKRGS_DCHECK(index.consequent() == plan.consequent &&
                   index.order() == plan.order,
               "the index is not ordered by the plan");

  TopkMinerOptions mine_options;
  mine_options.k = plan.k;
  mine_options.min_support = plan.initial_min_support;
  mine_options.deadline = options.deadline;
  mine_options.begin_pos = range.begin_pos;
  mine_options.first_level_end = range.first_level_end;

  TopkResult mined = MineTopkRGS(index, mine_options);
  ShardResult result;
  result.shard_index = shard_index;
  result.per_pos.resize(plan.positives - range.begin_pos);
  for (uint32_t i = 0; i < result.per_pos.size(); ++i) {
    const RowId row = plan.order[range.begin_pos + i];
    result.per_pos[i] = std::move(mined.per_row[row]);
  }
  result.stats = mined.stats;
  return result;
}

ShardResult MineShard(const TransposedView& view, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options) {
  return MineShard(ProjectPlanItems(view, plan), plan, shard_index, options);
}

}  // namespace topkrgs
