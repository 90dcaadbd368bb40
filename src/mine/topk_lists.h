#ifndef TOPKRGS_MINE_TOPK_LISTS_H_
#define TOPKRGS_MINE_TOPK_LISTS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rule.h"
#include "mine/topk_miner.h"
#include "util/check.h"

namespace topkrgs {

/// A rule group shared between the per-row lists of every row it covers.
/// Seeded single-item groups start `provisional`: their antecedent is the
/// single item, not yet the closure (upper bound); they are upgraded in
/// place when the real upper bound is inserted, or closed by the miner's
/// finalization pass.
struct GroupHandle {
  RuleGroup group;
  bool provisional = false;
};
using HandlePtr = std::shared_ptr<GroupHandle>;

/// The per-row top-k lists of MineTopkRGS, one per slot, fed
/// single-threaded in canonical insertion order. The miner replays its
/// recorded emissions through them; the sharded merge replays each
/// shard's final lists through them (DESIGN.md §14). Both therefore make
/// every list decision — dedup, provisional upgrade, k-th tie rejection,
/// the final minsup raise — through this one type.
class TopkLists {
 public:
  TopkLists() = default;
  TopkLists(uint32_t num_slots, uint32_t k) : k_(k), lists_(num_slots) {}

  /// The paper's per-row list maintenance. Dedups by the identity triple
  /// (support, antecedent support, row support), upgrading a provisional
  /// seed in place when the matching upper bound arrives (§4.1.1, first
  /// optimization); ties on significance keep the earlier arrival,
  /// matching CBA's "<" order.
  void Insert(uint32_t slot, const HandlePtr& handle) {
    auto& list = lists_[slot];
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

    if (list.size() >= k_) {
      const RuleGroup& kth = list.back()->group;
      if (CompareSignificance(g.support, g.antecedent_support, kth.support,
                              kth.antecedent_support) <= 0) {
        return;  // not more significant than the current k-th entry
      }
    }
    auto it = std::find_if(list.begin(), list.end(), [&](const HandlePtr& e) {
      return CompareSignificance(g.support, g.antecedent_support,
                                 e->group.support,
                                 e->group.antecedent_support) > 0;
    });
    list.insert(it, handle);
    if (list.size() > k_) list.pop_back();
  }

  /// The slot's list, most significant first.
  const std::vector<HandlePtr>& at(uint32_t slot) const {
    return lists_[slot];
  }

  /// Appends the slot's list to *out, sharing each handle's group. Every
  /// provisional seed must have been closed first.
  void Export(uint32_t slot, std::vector<RuleGroupPtr>* out) const {
    out->reserve(out->size() + lists_[slot].size());
    for (const HandlePtr& handle : lists_[slot]) {
      TKRGS_DCHECK(!handle->provisional, "exporting an unclosed seed");
      out->push_back(RuleGroupPtr(handle, &handle->group));
    }
  }

  /// The paper's dynamic minsup raise (§4.1.1, second optimization),
  /// recomputed from the final lists of the consequent-class `slots`:
  /// when every one holds k groups of 100% confidence, minsup rises to
  /// one above the lowest k-th support. The raises applied during a
  /// search depend on thread timing and are only ever weaker than this.
  uint32_t EffectiveMinsup(uint32_t initial_minsup,
                           std::span<const uint32_t> slots) const {
    uint32_t lowest = UINT32_MAX;
    for (uint32_t slot : slots) {
      const auto& list = lists_[slot];
      if (list.size() < k_) return initial_minsup;
      const RuleGroup& kth = list.back()->group;
      if (kth.support == 0 || kth.support != kth.antecedent_support) {
        return initial_minsup;
      }
      lowest = std::min(lowest, kth.support);
    }
    if (lowest == UINT32_MAX) return initial_minsup;
    return std::max(initial_minsup, lowest + 1);
  }

 private:
  uint32_t k_ = 1;
  std::vector<std::vector<HandlePtr>> lists_;
};

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_TOPK_LISTS_H_
