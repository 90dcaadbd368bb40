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

/// A rule group's significance key (Definition 2.2): support and
/// antecedent support. (0, 0) ranks below every real group, whose support
/// is >= 1, so it stands for "no k-th entry yet".
struct Significance {
  uint32_t sup = 0;
  uint32_t asup = 0;
};

/// The per-row top-k lists of MineTopkRGS, one per slot. The miner inserts
/// every seed and emission here once, in discovery order, and prunes
/// against the lists' k-th entries; the sharded merge replays each shard's
/// final lists through the same type (DESIGN.md §14). Both therefore make
/// every list decision — dedup, provisional upgrade, k-th tie rejection,
/// the final minsup raise — through this one type.
class TopkLists {
 public:
  TopkLists() = default;
  TopkLists(uint32_t num_slots, uint32_t k)
      : k_(k), lists_(num_slots), kth_(num_slots) {}

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
    if (list.size() >= k_) UpdateKth(slot);
  }

  /// The significance of the slot's k-th entry; (0, 0) while the list
  /// holds fewer than k groups.
  Significance Kth(uint32_t slot) const { return kth_[slot]; }

  /// Counts the changes of any slot's k-th entry, so that a caller
  /// deriving something from all of them rescans only after one moved.
  uint64_t kth_changes() const { return kth_changes_; }

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

  /// The lowest k-th support over `slots` when every one of them holds k
  /// groups of 100% confidence (the premise of the paper's dynamic minsup
  /// raise, §4.1.1, second optimization); 0 otherwise or when `slots` is
  /// empty.
  uint32_t LowestExactKth(std::span<const uint32_t> slots) const {
    uint32_t lowest = UINT32_MAX;
    for (uint32_t slot : slots) {
      const Significance kth = kth_[slot];
      if (kth.sup == 0 || kth.sup != kth.asup) return 0;
      lowest = std::min(lowest, kth.sup);
    }
    return lowest == UINT32_MAX ? 0 : lowest;
  }

  /// The paper's dynamic minsup raise, recomputed from the final lists of
  /// the consequent-class `slots`: when every one holds k groups of 100%
  /// confidence, minsup rises to one above the lowest k-th support. The
  /// miner's raises during the search stop one level short of this.
  uint32_t EffectiveMinsup(uint32_t initial_minsup,
                           std::span<const uint32_t> slots) const {
    const uint32_t lowest = LowestExactKth(slots);
    if (lowest == 0) return initial_minsup;
    return std::max(initial_minsup, lowest + 1);
  }

 private:
  /// Mirrors the full list's k-th entry into kth_[slot].
  void UpdateKth(uint32_t slot) {
    const auto& list = lists_[slot];
    TKRGS_DCHECK_SORTED(
        list.begin(), list.end(),
        [](const HandlePtr& a, const HandlePtr& b) {
          return CompareSignificance(a->group.support,
                                     a->group.antecedent_support,
                                     b->group.support,
                                     b->group.antecedent_support) > 0;
        },
        "per-row list must stay sorted by significance");
    const RuleGroup& g = list.back()->group;
    const Significance kth{g.support, g.antecedent_support};
    Significance& stored = kth_[slot];
    if (kth.sup == stored.sup && kth.asup == stored.asup) return;
    // Top-k pruning (§4.1.1) is sound only if the per-row threshold — and
    // with it the dynamically derived minconf — is monotone
    // non-decreasing: a threshold that ever dropped could have pruned a
    // subtree that later became viable again.
    TKRGS_DCHECK(CompareSignificance(kth.sup, kth.asup, stored.sup,
                                     stored.asup) >= 0,
                 "k-th significance (minconf source) must never decrease");
    stored = kth;
    ++kth_changes_;
  }

  uint32_t k_ = 1;
  std::vector<std::vector<HandlePtr>> lists_;
  std::vector<Significance> kth_;  // kth_[slot] mirrors Kth(slot)
  uint64_t kth_changes_ = 0;
};

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_TOPK_LISTS_H_
