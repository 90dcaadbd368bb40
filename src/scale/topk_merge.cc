#include "scale/topk_merge.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rule.h"
#include "util/bitset.h"
#include "util/timer.h"

namespace topkrgs {

namespace {

/// Mutable wrapper during the merge; mirrors the miner's GroupHandle.
/// `provisional` marks a reconstructed single-item seed whose closed
/// antecedent has not arrived yet (upgraded in place on dedup, or closed
/// against the view at finalize).
struct MergeHandle {
  RuleGroup group;
  bool provisional = false;
};
using MergeHandlePtr = std::shared_ptr<MergeHandle>;

class Merger {
 public:
  Merger(const TransposedView& view, const ShardPlan& plan)
      : view_(view), plan_(plan), lists_(plan.positives) {}

  /// Byte-for-byte the miner's ReplayInsert (topk_miner.cc): dedup by the
  /// identity triple with provisional upgrade, k-th-tie rejection (the
  /// earlier — canonically first — arrival keeps the slot), sorted insert.
  void Insert(uint32_t pos, const MergeHandlePtr& handle) {
    auto& list = lists_[pos];
    const RuleGroup& g = handle->group;

    for (auto& existing : list) {
      RuleGroup& e = existing->group;
      if (e.support == g.support &&
          e.antecedent_support == g.antecedent_support &&
          e.row_support == g.row_support) {
        if (existing->provisional && !handle->provisional) {
          e.antecedent = g.antecedent;
          existing->provisional = false;
        }
        return;
      }
    }

    if (list.size() >= plan_.k) {
      const RuleGroup& kth = list.back()->group;
      if (CompareSignificance(g.support, g.antecedent_support, kth.support,
                              kth.antecedent_support) <= 0) {
        return;
      }
    }
    auto it = std::find_if(
        list.begin(), list.end(), [&](const MergeHandlePtr& e) {
          return CompareSignificance(g.support, g.antecedent_support,
                                     e->group.support,
                                     e->group.antecedent_support) > 0;
        });
    list.insert(it, handle);
    if (list.size() > plan_.k) list.pop_back();
  }

  /// Pass 1 — single-item seeds, ascending item order, exactly
  /// SeedSingleItems over the global table.
  void SeedItems() {
    plan_.frequent.ForEach([&](size_t item_index) {
      // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
      const uint32_t item = static_cast<uint32_t>(item_index);
      const uint32_t* ids = view_.rows_of(item);
      const size_t count = view_.rows_count(item);
      auto handle = std::make_shared<MergeHandle>();
      handle->provisional = true;
      handle->group.antecedent = Bitset(view_.num_items);
      handle->group.antecedent.Set(item);
      handle->group.consequent = plan_.consequent;
      Bitset rows(view_.num_rows);
      uint32_t support = 0;
      for (size_t i = 0; i < count; ++i) {
        rows.Set(ids[i]);
        if (view_.labels[ids[i]] == plan_.consequent) ++support;
      }
      handle->group.row_support = std::move(rows);
      // NOLINT(cast: rows_count <= num_rows, a uint32)
      handle->group.antecedent_support = static_cast<uint32_t>(count);
      handle->group.support = support;
      for (size_t i = 0; i < count; ++i) {
        if (view_.labels[ids[i]] != plan_.consequent) continue;
        Insert(plan_.position_of[ids[i]], handle);
      }
    });
  }

  /// Pass 2 — the root group: rows containing EVERY frequent item. Its
  /// canonical slot is right after the seeds (origin 1 in the miner).
  /// Inserting it even when the single-shot search would have suppressed
  /// it is sound: suppression at the root can only be justified by seed
  /// entries, which are already in the lists here and reject it the same
  /// way.
  void RootGroup() {
    // NOLINT(cast: Count() <= num_items, a uint32)
    const auto frequent_count = static_cast<uint32_t>(plan_.frequent.Count());
    if (frequent_count == 0) return;
    std::vector<uint32_t> weight(view_.num_rows, 0);
    plan_.frequent.ForEach([&](size_t bit) {
      // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
      const uint32_t item = static_cast<uint32_t>(bit);
      const uint32_t* ids = view_.rows_of(item);
      const size_t count = view_.rows_count(item);
      for (size_t i = 0; i < count; ++i) ++weight[ids[i]];
    });
    Bitset absorbed(view_.num_rows);
    uint32_t asup = 0;
    uint32_t sup = 0;
    for (uint32_t r = 0; r < view_.num_rows; ++r) {
      if (weight[r] != frequent_count) continue;
      absorbed.Set(r);
      ++asup;
      if (view_.labels[r] == plan_.consequent) ++sup;
    }
    if (asup == 0 || sup < plan_.initial_min_support) return;
    auto handle = std::make_shared<MergeHandle>();
    handle->group.antecedent = plan_.frequent;
    handle->group.consequent = plan_.consequent;
    handle->group.support = sup;
    handle->group.antecedent_support = asup;
    handle->group.row_support = absorbed;
    absorbed.ForEach([&](size_t r) {
      if (view_.labels[r] != plan_.consequent) return;
      Insert(plan_.position_of[r], handle);
    });
  }

  /// Pass 3 — shard emission streams, shard order then position order
  /// then list order: exactly the canonical order of the first-level
  /// subtrees each shard owns. Handles are shared across the rows a group
  /// covers, like the miner's.
  void ShardStreams(const std::vector<ShardResult>& shards) {
    for (const ShardResult& shard : shards) {
      // NOLINT(determinism: pointer-keyed identity map probed via
      // operator[] only, never iterated — inserts walk the shard's
      // per-position lists in order, so neither bucket order nor
      // addresses can leak into the merge)
      std::unordered_map<const RuleGroup*, MergeHandlePtr> wrapped;
      for (uint32_t pos = 0; pos < shard.per_pos.size(); ++pos) {
        for (const RuleGroupPtr& group : shard.per_pos[pos]) {
          MergeHandlePtr& slot = wrapped[group.get()];
          if (slot == nullptr) {
            slot = std::make_shared<MergeHandle>();
            slot->group = *group;
          }
          Insert(pos, slot);
        }
      }
    }
  }

  /// Closes surviving provisional seeds (their closed antecedent was
  /// suppressed in every shard as a strictly-dominated never-winner) the
  /// same way Finalize does, but against the transposed view: the closure
  /// of R within the frequent universe is every frequent item whose
  /// posting list contains R.
  void CloseProvisional(MergeHandle* handle) {
    const std::vector<uint32_t> rows = handle->group.row_support.ToVector();
    Bitset closure(view_.num_items);
    plan_.frequent.ForEach([&](size_t item_index) {
      // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
      const uint32_t item = static_cast<uint32_t>(item_index);
      const size_t count = view_.rows_count(item);
      if (count < rows.size()) return;
      const uint32_t* ids = view_.rows_of(item);
      if (std::includes(ids, ids + count, rows.begin(), rows.end())) {
        closure.Set(item);
      }
    });
    handle->group.antecedent = std::move(closure);
    handle->provisional = false;
  }

  MergedTopk Finish() {
    MergedTopk merged;
    merged.per_row.assign(view_.num_rows, {});
    for (uint32_t pos = 0; pos < plan_.positives; ++pos) {
      auto& out = merged.per_row[plan_.order[pos]];
      out.reserve(lists_[pos].size());
      for (const MergeHandlePtr& handle : lists_[pos]) {
        if (handle->provisional) CloseProvisional(handle.get());
        out.push_back(RuleGroupPtr(handle, &handle->group));
      }
    }
    // FinalEffectiveMinsup's rule: the dynamic raise recomputed from the
    // final lists (all positive lists full of 100%-confidence groups).
    merged.effective_min_support = plan_.initial_min_support;
    if (plan_.positives > 0) {
      uint32_t lowest = UINT32_MAX;
      for (uint32_t pos = 0; pos < plan_.positives; ++pos) {
        const auto& list = lists_[pos];
        if (list.size() < plan_.k) return merged;
        const RuleGroup& kth = list.back()->group;
        if (kth.support == 0 || kth.support != kth.antecedent_support) {
          return merged;
        }
        lowest = std::min(lowest, kth.support);
      }
      if (lowest != UINT32_MAX) {
        merged.effective_min_support =
            std::max(merged.effective_min_support, lowest + 1);
      }
    }
    return merged;
  }

 private:
  const TransposedView& view_;
  const ShardPlan& plan_;
  std::vector<std::vector<MergeHandlePtr>> lists_;  // by canonical position
};

}  // namespace

MergedTopk MergeShardResults(const TransposedView& view, const ShardPlan& plan,
                             const std::vector<ShardResult>& shards) {
  Merger merger(view, plan);
  if (plan.frequent.Count() > 0 && plan.positives > 0) {
    merger.SeedItems();
    merger.RootGroup();
    merger.ShardStreams(shards);
  }
  return merger.Finish();
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
  for (uint32_t p = 0; p < plan.shards.size(); ++p) {
    // Each shard's dense suffix dataset and guard live only inside this
    // call — one shard's working set is resident at a time.
    ShardResult result = MineShard(view, plan, p, mine_options);
    aggregate.nodes_visited += result.stats.nodes_visited;
    aggregate.groups_emitted += result.stats.groups_emitted;
    aggregate.pruned_backward += result.stats.pruned_backward;
    aggregate.pruned_bounds += result.stats.pruned_bounds;
    aggregate.tasks_executed += result.stats.tasks_executed;
    aggregate.tasks_spawned += result.stats.tasks_spawned;
    aggregate.tasks_stolen += result.stats.tasks_stolen;
    aggregate.freq_scans += result.stats.freq_scans;
    aggregate.postings_scans += result.stats.postings_scans;
    aggregate.timed_out = aggregate.timed_out || result.stats.timed_out;
    results.push_back(std::move(result));
  }

  MergedTopk merged = MergeShardResults(view, plan, results);
  merged.stats = aggregate;
  merged.stats.seconds = timer.ElapsedSeconds();
  if (plan_out != nullptr) *plan_out = plan;
  return merged;
}

}  // namespace topkrgs
