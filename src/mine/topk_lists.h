#ifndef TOPKRGS_MINE_TOPK_LISTS_H_
#define TOPKRGS_MINE_TOPK_LISTS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rule.h"
#include "mine/topk_miner.h"
#include "util/check.h"

namespace topkrgs {

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
/// every list decision — k-th tie rejection, dedup, the final minsup raise
/// — through this one type. A list shares its groups with every other
/// list that holds them.
class TopkLists {
 public:
  TopkLists() = default;
  TopkLists(uint32_t num_slots, uint32_t k)
      : k_(k), lists_(num_slots), kth_(num_slots) {}

  /// The paper's per-row list maintenance. Returns whether `group` entered
  /// the slot's list. A group no more significant than a full list's k-th
  /// entry is rejected first (a tie keeps the earlier arrival, matching
  /// CBA's "<" order); one whose identity triple (support, antecedent
  /// support, row support) is already listed is rejected next. A rejected
  /// group changes nothing, so the order of the two checks cannot matter.
  bool Insert(uint32_t slot, const RuleGroupPtr& group) {
    auto& list = lists_[slot];
    const RuleGroup& g = *group;
    auto outranks = [&g](const RuleGroupPtr& e) {
      return CompareSignificance(g.support, g.antecedent_support, e->support,
                                 e->antecedent_support) > 0;
    };
    if (list.size() >= k_ && !outranks(list.back())) return false;
    for (const RuleGroupPtr& e : list) {
      if (e->support == g.support &&
          e->antecedent_support == g.antecedent_support &&
          e->row_support == g.row_support) {
        return false;
      }
    }
    list.insert(std::find_if(list.begin(), list.end(), outranks), group);
    if (list.size() > k_) list.pop_back();
    if (list.size() >= k_) UpdateKth(slot);
    return true;
  }

  /// The significance of the slot's k-th entry; (0, 0) while the list
  /// holds fewer than k groups.
  Significance Kth(uint32_t slot) const { return kth_[slot]; }

  /// Counts the changes of any slot's k-th entry, so that a caller
  /// deriving something from all of them rescans only after one moved.
  uint64_t kth_changes() const { return kth_changes_; }

  /// Appends the slot's list, most significant first, to *out. The
  /// groups are shared, not copied.
  void Export(uint32_t slot, std::vector<RuleGroupPtr>* out) const {
    out->insert(out->end(), lists_[slot].begin(), lists_[slot].end());
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
        [](const RuleGroupPtr& a, const RuleGroupPtr& b) {
          return CompareSignificance(a->support, a->antecedent_support,
                                     b->support, b->antecedent_support) > 0;
        },
        "per-row list must stay sorted by significance");
    const RuleGroup& g = *list.back();
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
  std::vector<std::vector<RuleGroupPtr>> lists_;
  std::vector<Significance> kth_;  // kth_[slot] mirrors Kth(slot)
  uint64_t kth_changes_ = 0;
};

}  // namespace topkrgs

#endif  // TOPKRGS_MINE_TOPK_LISTS_H_
