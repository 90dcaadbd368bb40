#include "scale/shard_miner.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rule.h"
#include "core/types.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/rowset.h"

namespace topkrgs {

DiscreteDataset BuildSuffixDataset(const TransposedView& view,
                                   const ShardPlan& plan,
                                   uint32_t shard_index) {
  const uint32_t begin = plan.shards[shard_index].begin_pos;
  const uint32_t suffix_rows = view.num_rows - begin;
  std::vector<std::vector<ItemId>> rows(suffix_rows);
  for (uint32_t item = 0; item < view.num_items; ++item) {
    const uint32_t* ids = view.rows_of(item);
    const size_t count = view.rows_count(item);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t pos = plan.position_of[ids[i]];
      if (pos >= begin) rows[pos - begin].push_back(item);
    }
  }
  std::vector<ClassLabel> labels(suffix_rows);
  for (uint32_t l = 0; l < suffix_rows; ++l) {
    labels[l] = view.labels[plan.order[begin + l]];
  }
  return DiscreteDataset(view.num_items, std::move(rows), std::move(labels));
}

namespace {

/// The out-of-shard half of the backward check: per-item postings over the
/// PREFIX positions [0, begin_pos), as bitsets, so "is this itemset
/// contained in some earlier row" becomes an intersection chain with an
/// empty-set early exit. Read-only after construction — workers query it
/// concurrently through thread-local scratch.
class PrefixGuard {
 public:
  PrefixGuard(const TransposedView& view, const ShardPlan& plan,
              uint32_t begin_pos)
      : prefix_rows_(begin_pos) {
    item_prefix_.reserve(view.num_items);
    for (uint32_t item = 0; item < view.num_items; ++item) {
      item_prefix_.emplace_back(begin_pos);
    }
    for (uint32_t item = 0; item < view.num_items; ++item) {
      const uint32_t* ids = view.rows_of(item);
      const size_t count = view.rows_count(item);
      for (size_t i = 0; i < count; ++i) {
        const uint32_t pos = plan.position_of[ids[i]];
        if (pos < begin_pos) item_prefix_[item].Set(pos);
      }
    }
  }

  /// True iff every item of `items` occurs together in at least one prefix
  /// row: ∩ prefix-postings(i) ≠ ∅.
  bool Contains(const RowSet& items) const {
    if (prefix_rows_ == 0) return false;
    if (items.Count() == 0) return true;  // ∅ ⊆ any row
    // Thread-local accumulator: the assignment reuses its buffer across
    // calls, and each worker owns its copy, keeping the hook safe under
    // the work-stealing pool.
    static thread_local Bitset acc;
    bool first = true;
    bool empty = false;
    items.ForEach([&](size_t item) {
      if (empty) return;
      const Bitset& postings = item_prefix_[item];
      if (first) {
        acc = postings;
        first = false;
      } else {
        acc.IntersectWith(postings);
      }
      if (acc.None()) empty = true;
    });
    return !empty;
  }

 private:
  uint32_t prefix_rows_;
  std::vector<Bitset> item_prefix_;
};

}  // namespace

ShardResult MineShard(const TransposedView& view, const ShardPlan& plan,
                      uint32_t shard_index, const ShardMineOptions& options) {
  const ShardRange& range = plan.shards[shard_index];
  const uint32_t begin = range.begin_pos;
  const uint32_t np = plan.positives;

  const DiscreteDataset suffix = BuildSuffixDataset(view, plan, shard_index);
  const PrefixGuard guard(view, plan, begin);

  ShardHooks hooks;
  hooks.frequent_items = &plan.frequent;
  hooks.first_level_limit = range.first_level_limit;
  if (begin > 0) {
    hooks.contained_outside = [&guard](const RowSet& items) {
      return guard.Contains(items);
    };
  }

  TopkMinerOptions mine_options;
  mine_options.k = plan.k;
  mine_options.min_support = plan.initial_min_support;
  mine_options.row_order = TopkMinerOptions::RowOrder::kNatural;
  mine_options.threads = options.threads;
  mine_options.deadline = options.deadline;
  mine_options.shard_hooks = &hooks;

  const TopkResult local =
      MineTopkRGS(suffix, plan.consequent, mine_options);

  ShardResult result;
  result.shard_index = shard_index;
  result.stats = local.stats;
  result.per_pos.assign(np, {});

  // Remap to global coordinates. Each distinct group is translated once
  // and shared across the rows it covers, mirroring the miner's own
  // handle sharing.
  // NOLINT(determinism: pointer-keyed identity map probed via operator[]
  // only, never iterated — emission follows the per-row list order, so
  // neither bucket order nor addresses can leak into the output)
  std::unordered_map<const RuleGroup*, RuleGroupPtr> translated;
  for (uint32_t local_row = 0; local_row < suffix.num_rows(); ++local_row) {
    const auto& list = local.per_row[local_row];
    if (list.empty()) continue;
    const uint32_t global_pos = begin + local_row;
    TKRGS_DCHECK_LT(global_pos, np,
                    "a shard list on a non-consequent (negative) row");
    auto& out = result.per_pos[global_pos];
    out.reserve(list.size());
    for (const RuleGroupPtr& group : list) {
      RuleGroupPtr& slot = translated[group.get()];
      if (slot == nullptr) {
        auto remapped = std::make_shared<RuleGroup>();
        remapped->antecedent = group->antecedent;
        remapped->consequent = group->consequent;
        remapped->support = group->support;
        remapped->antecedent_support = group->antecedent_support;
        Bitset rows(view.num_rows);
        group->row_support.ForEach([&](size_t l) {
          rows.Set(plan.order[begin + l]);
        });
        remapped->row_support = std::move(rows);
        slot = std::move(remapped);
      }
      out.push_back(slot);
    }
  }
  return result;
}

}  // namespace topkrgs
