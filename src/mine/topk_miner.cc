#include "mine/topk_miner.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <utility>

#include "mine/topk_lists.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/hot_path.h"
#include "util/rowset.h"
#include "util/status.h"

namespace topkrgs {

namespace {

/// Whether a candidate of significance (sup, asup) can never enter a list
/// whose k-th entry is `cut`. A tie loses too: TopkLists::Insert keeps the
/// earlier arrival. The (0, 0) cut of a list that is not full yet never
/// prunes, since every real candidate has support >= 1.
inline bool Dominated(uint32_t sup, uint32_t asup, const Significance& cut) {
  return CompareSignificance(sup, asup, cut.sup, cut.asup) <= 0;
}

class TopkSearch {
 public:
  TopkSearch(const DiscreteDataset& data, ClassLabel consequent,
             const TopkMinerOptions& options)
      : data_(data), consequent_(consequent), opt_(options) {}

  TopkResult Run();

 private:
  /// Visits node X, whose candidate rows are `cand` (ascending positions,
  /// none in X) and whose item set I(X) is `items`.
  TKRGS_HOT void Visit(std::span<const uint32_t> cand, const RowSet& items,
                       uint32_t items_count, bool closed_on_left);

  /// Step 10's scan of TT'|_X: (*freq)[i] = |I(X) ∩ items(cand[i])|,
  /// counted per candidate or from item postings, whichever
  /// CountFreqFromPostings says costs less at this node.
  TKRGS_HOT void CountFreq(std::span<const uint32_t> cand, const RowSet& items,
                           std::vector<uint32_t>* freq);

  /// The rest of Step 10, shared by Visit and MineRoot: candidates holding
  /// all of I(X) are absorbed into X (pushed onto the DFS stack — they
  /// appear in every descendant), candidates holding part of it stay live
  /// with their counts, and suffix_pos[i] counts the positive live rows at
  /// i and after (so suffix_pos[0] is mp, the rows that can still raise a
  /// descendant's support).
  TKRGS_HOT void ScanAndAbsorb(std::span<const uint32_t> cand,
                               const RowSet& items, uint32_t items_count,
                               std::vector<uint32_t>* absorbed,
                               std::vector<uint32_t>* live,
                               std::vector<uint32_t>* live_freq,
                               std::vector<uint32_t>* suffix_pos);

  /// Step 7's question for child X ∪ {p}, whose item set is `items`
  /// (`items_count` items): does a row at a position before p and outside
  /// X hold all of them? Rows before a shard scope are never in X, so they
  /// answer like any other earlier row. Only rows holding the rarest item
  /// can, so the check walks that item's postings instead of the p earlier
  /// rows when they are shorter; both walks stop at the first holder.
  TKRGS_HOT bool HeldEarlier(const RowSet& items, uint32_t items_count,
                             uint32_t p) const;

  /// Steps 7 and 14 for child X ∪ {live[i]} of the current node X: the
  /// backward check, then the descent. `items` is I(X); it must not be
  /// rowset_scratch_[depth_], the slot the child's item set goes to.
  TKRGS_HOT void Descend(const RowSet& items, std::span<const uint32_t> live,
                         uint32_t child_count, size_t i);

  /// The per-child loose bound: support below child X ∪ {p} is capped by
  /// X, the branch row p, and the `positives_after` positive candidates
  /// ordered after it. `rows` and `cut` as in Admits; the parent's rows
  /// cover every child's, so checking against them is sound.
  TKRGS_HOT bool ChildHopeless(uint32_t p, uint32_t positives_after,
                               std::span<const uint32_t> rows,
                               Significance* cut) {
    return Hopeless(xp_ + (IsPos(p) ? 1 : 0) + positives_after,
                    xn_ + (IsPos(p) ? 0 : 1), rows, cut);
  }

  /// The root node: Steps 8-13 as in Visit, then the first-level children
  /// in ORD order, checking the deadline before each. Its child loop is
  /// where a shard scope stops at first_level_end.
  void MineRoot(const RowSet& items, uint32_t items_count);

  void SeedSingleItems(const Bitset& frequent_items);
  TKRGS_HOT void MaybeRaiseMinsup();

  /// The top-k admission check (§4.1.1, Lemma 3.2): whether some positive
  /// row of x_stack_ ∪ `rows` — the rows the caller can still cover — has
  /// a k-th entry that does not Dominate (sup, asup). Stops at the first
  /// such row. `cut` is the caller's cache: a full scan that finds none
  /// stores the cut it folded (Equation 1/2: the weakest k-th entry), and
  /// a later check the cached cut already Dominates answers without
  /// reading a row. The cache stays sound while the caller's later checks
  /// read a subset of the rows it was folded over: k-th entries only
  /// tighten, and fewer rows cut no looser.
  TKRGS_HOT bool Admits(uint32_t sup, uint32_t asup,
                        std::span<const uint32_t> rows, Significance* cut);
  /// Whether nothing below the current node can enter a list: its best
  /// group (support best_sup, at least min_neg negative rows) is under
  /// minsup or, with top-k pruning, not admitted on `rows`.
  TKRGS_HOT bool Hopeless(uint32_t best_sup, uint32_t min_neg,
                          std::span<const uint32_t> rows, Significance* cut);
  /// Step 13: inserts the current node's group into the list of every
  /// positive row of X, unless minsup or the admission check on `cand`
  /// (the node's candidates) rejects it.
  TKRGS_HOT void EmitAt(const RowSet& items, std::span<const uint32_t> cand,
                        Significance* cut);
  void Finalize(const Bitset& frequent_items, TopkResult* result);

  bool IsPos(uint32_t pos) const { return pos_positive_[pos] != 0; }

  const DiscreteDataset& data_;
  const ClassLabel consequent_;
  const TopkMinerOptions& opt_;

  std::vector<RowId> order_;           // position -> original row id
  std::vector<uint32_t> position_of_;  // original row id -> position
  std::vector<uint8_t> pos_positive_;  // position -> is consequent-class
  std::vector<uint32_t> positive_positions_;  // in scope: >= begin_pos
  std::vector<uint32_t> item_support_;  // item -> |item_rows(item)|
  uint32_t item_words_ = 0;  // 64-bit words of an item-universe bitmap
  uint32_t row_words_ = 0;   // 64-bit words of a row bitmap
  uint32_t initial_minsup_ = 1;
  uint32_t minsup_ = 1;      // raised by MaybeRaiseMinsup, never lowered

  /// The per-row top-k lists: every seed and emission goes here once, and
  /// every pruning decision reads their k-th entries.
  TopkLists lists_;
  /// lists_.kth_changes() at the last minsup scan. Before the first
  /// change no list is full, so there is nothing to scan.
  uint64_t minsup_scanned_at_ = 0;

  // DFS state: X as a stack of positions (plus membership flags and its
  // positive/negative counts) and the branch depth below the root.
  std::vector<uint32_t> x_stack_;
  std::vector<uint8_t> in_x_;
  uint32_t xp_ = 0;
  uint32_t xn_ = 0;
  uint32_t depth_ = 0;

  // Scratch the search reuses so that it stops allocating once warm.
  VectorPool<uint32_t> scratch_;
  // Per-row postings counter of CountFreq, indexed by original row id;
  // all zero between scans (each scan resets what it set).
  std::vector<uint32_t> row_count_;
  // One RowSet per enumeration depth, reused across every sibling at
  // that depth: IntersectAdaptiveInto refills the slot's id array or
  // bitmap in place, so the per-node intersection stops allocating once
  // each depth has been visited once. A deque keeps references stable
  // while deeper slots append.
  std::deque<RowSet> rowset_scratch_;

  bool timed_out_ = false;
  MinerStats stats_;
};

void TopkSearch::SeedSingleItems(const Bitset& frequent_items) {
  const Bitset class_rows = data_.ClassRowset(consequent_);
  // Rows before the shard scope (none in stand-alone mining). Shard 0
  // plants every seed; a later shard skips the seeds an out-of-scope row
  // holds, which shard 0 already lists, so its search is the one over its
  // own rows alone (DESIGN.md §14).
  Bitset out_of_scope(data_.num_rows());
  for (uint32_t pos = 0; pos < opt_.begin_pos; ++pos) {
    out_of_scope.Set(order_[pos]);
  }
  frequent_items.ForEach([&](size_t item_index) {
    const ItemId item = static_cast<ItemId>(item_index);
    const Bitset& rows = data_.item_rows(item);
    if (rows.Intersects(out_of_scope)) return;
    auto handle = std::make_shared<GroupHandle>();
    handle->provisional = true;
    handle->group.antecedent = Bitset(data_.num_items());
    handle->group.antecedent.Set(item);
    handle->group.row_support = rows;
    handle->group.consequent = consequent_;
    handle->group.antecedent_support = static_cast<uint32_t>(rows.Count());
    handle->group.support =
        static_cast<uint32_t>(rows.IntersectCount(class_rows));
    rows.ForEach([&](size_t row) {
      if (data_.label(static_cast<RowId>(row)) != consequent_) return;
      lists_.Insert(position_of_[row], handle);
    });
  });
}

void TopkSearch::MaybeRaiseMinsup() {
  if (!opt_.dynamic_min_support) return;
  // The O(np) scan below can only conclude anything new after some k-th
  // entry moved. This is what makes calling it at EVERY node affordable:
  // while no k-th entry changes it is one comparison.
  if (lists_.kth_changes() == minsup_scanned_at_) return;
  minsup_scanned_at_ = lists_.kth_changes();
  // Every row holds k groups of 100% confidence with support >= lowest
  // (0 when some list is not there yet): anything with support below
  // lowest is strictly less significant than every k-th entry. The paper
  // raises to lowest + 1; that extra level would be sound, since a group
  // tying a k-th entry loses to it, but it prunes different nodes than
  // the admission check that already rejects those ties, so it would move
  // the search counters. The reported effective minimum support applies
  // the paper's rule (TopkLists::EffectiveMinsup).
  const uint32_t lowest = lists_.LowestExactKth(positive_positions_);
  const uint32_t before = minsup_;
  minsup_ = std::max(minsup_, lowest);
  TKRGS_DCHECK_GE(minsup_, before,
                  "dynamic minsup must be monotone non-decreasing");
}

bool TopkSearch::Admits(uint32_t sup, uint32_t asup,
                        std::span<const uint32_t> rows, Significance* cut) {
  if (Dominated(sup, asup, *cut)) return false;
  // The scan folds the exact cut as it goes. A row no weaker than the
  // fold so far cannot admit (the candidate already lost to the fold),
  // so it costs the one comparison that keeps the fold.
  Significance fold{UINT32_MAX, UINT32_MAX};  // the cut over no row: prune all
  uint64_t scanned = 0;
  auto admitting_row = [&](std::span<const uint32_t> positions) {
    for (uint32_t pos : positions) {
      if (!IsPos(pos)) continue;
      ++scanned;
      const Significance t = lists_.Kth(pos);
      if (CompareSignificance(t.sup, t.asup, fold.sup, fold.asup) >= 0) {
        continue;
      }
      fold = t;
      if (!Dominated(sup, asup, t)) return true;
    }
    return false;
  };
  const bool admitted = admitting_row(x_stack_) || admitting_row(rows);
  stats_.cut_rows_scanned += scanned;
  if (!admitted) *cut = fold;
  return admitted;
}

bool TopkSearch::Hopeless(uint32_t best_sup, uint32_t min_neg,
                          std::span<const uint32_t> rows, Significance* cut) {
  if (best_sup < minsup_) return true;
  if (!opt_.use_topk_pruning) return false;
  // Best achievable significance in the subtree: support best_sup with
  // confidence best_sup / (best_sup + min_neg). A subtree that cannot
  // beat the k-th entry of any row it could cover is hopeless; a tie
  // cannot beat it either (see Dominated).
  return !Admits(best_sup, best_sup + min_neg, rows, cut);
}

void TopkSearch::EmitAt(const RowSet& items, std::span<const uint32_t> cand,
                        Significance* cut) {
  if (xp_ < minsup_) return;
  if (opt_.use_topk_pruning && !Admits(xp_, xp_ + xn_, cand, cut)) {
    // No more significant than the k-th entry of every coverable row: it
    // would enter no list. (A suppressed emission may duplicate a
    // provisional seed's support set; Finalize closes surviving
    // provisionals itself, so the lost upgrade is harmless.)
    return;
  }
  // NOLINT(hotpath: one handle per emitted group; EmitAt runs only for
  // closed nodes that pass the top-k admission cut, not per node)
  auto handle = std::make_shared<GroupHandle>();
  // NOLINT(hotpath: materializes the emitted group's itemset once)
  handle->group.antecedent = items.ToBitset();
  handle->group.consequent = consequent_;
  handle->group.support = xp_;
  handle->group.antecedent_support = xp_ + xn_;
  // NOLINT(hotpath: row-support bitmap built once per emitted group)
  Bitset rows(data_.num_rows());
  for (uint32_t pos : x_stack_) rows.Set(order_[pos]);
  handle->group.row_support = std::move(rows);
  ++stats_.groups_emitted;
  for (uint32_t pos : x_stack_) {
    if (!IsPos(pos)) continue;
    // NOLINT(hotpath: once per covered row of an emitted group; the list
    // insert shifts at most k entries and spills the (k+1)-th)
    lists_.Insert(pos, handle);
  }
}

void TopkSearch::Visit(std::span<const uint32_t> cand, const RowSet& items,
                       uint32_t items_count, bool closed_on_left) {
  if (timed_out_) return;
  ++stats_.nodes_visited;
  if (opt_.deadline.Expired()) {
    timed_out_ = true;
    return;
  }
  if (items_count == 0) return;  // I(X) = ∅: no rules below this node

  uint32_t rp = 0;  // positive candidate rows (bounds the subtree's support)
  for (uint32_t p : cand) {
    if (IsPos(p)) ++rp;
  }

  // Step 8: threshold updating.
  MaybeRaiseMinsup();
  // This node's admission cut cache (see Admits). Its checks read x_stack
  // ∪ cand, or the subset x_stack ∪ live once Step 10 has moved absorbed
  // rows onto the stack; the one check over live that runs before a check
  // over cand (Step 11) refreshes the cache only when it prunes the node.
  Significance cut;

  // Step 9: loose bounds (no scan needed).
  if (opt_.use_bound_pruning && Hopeless(xp_ + rp, xn_, cand, &cut)) {
    ++stats_.pruned_bounds;
    return;
  }

  // Step 10: scan TT'|_X — frequencies, then absorb rows occurring in every
  // tuple (they appear in all descendants).
  PooledVector<uint32_t> absorbed_lease(&scratch_);
  PooledVector<uint32_t> live_lease(&scratch_);
  PooledVector<uint32_t> freq_lease(&scratch_);
  PooledVector<uint32_t> suffix_lease(&scratch_);
  std::vector<uint32_t>& absorbed = *absorbed_lease;
  std::vector<uint32_t>& live = *live_lease;
  std::vector<uint32_t>& live_freq = *freq_lease;
  std::vector<uint32_t>& suffix_pos = *suffix_lease;
  ScanAndAbsorb(cand, items, items_count, &absorbed, &live, &live_freq,
                &suffix_pos);

  // Step 11: tight bounds (suffix_pos[0] = mp, the candidate consequent
  // rows that can still appear in a descendant antecedent support set).
  const bool pruned = opt_.use_bound_pruning &&
                      Hopeless(xp_ + suffix_pos[0], xn_, live, &cut);
  if (pruned) {
    ++stats_.pruned_bounds;
  } else {
    // Step 13: emit the rule group of this node and update covered rows.
    // Only nodes with X == R(I(X)) carry a rule group; when the backward
    // check failed we are in a redundant subtree that emits nothing.
    if (closed_on_left) EmitAt(items, cand, &cut);

    // Step 14: enumerate children in ORD order.
    for (size_t i = 0; i < live.size() && !timed_out_; ++i) {
      // Per-child loose bounds before any per-child work. A check that
      // misses the cache reads the current k-th entries, so one that an
      // earlier sibling's subtree tightened prunes the very next child.
      if (opt_.use_bound_pruning &&
          ChildHopeless(live[i], suffix_pos[i + 1], live, &cut)) {
        ++stats_.pruned_bounds;
        continue;
      }
      Descend(items, live, live_freq[i], i);
    }
  }

  for (auto it = absorbed.rbegin(); it != absorbed.rend(); ++it) {
    const uint32_t p = *it;
    IsPos(p) ? --xp_ : --xn_;
    x_stack_.pop_back();
    in_x_[p] = 0;
  }
}

void TopkSearch::CountFreq(std::span<const uint32_t> cand, const RowSet& items,
                           std::vector<uint32_t>* freq) {
  ++stats_.freq_scans;
  // NOLINT(hotpath: pooled lease retains capacity across nodes)
  freq->resize(cand.size());
  const uint64_t n = items.Count();
  const bool sparse = items.is_sparse();
  bool postings =
      CountFreqFromPostings(cand.size(), n, sparse, item_words_, 0, row_words_);
  if (postings) {
    uint64_t support_sum = 0;
    items.ForEach([&](size_t item) { support_sum += item_support_[item]; });
    postings = CountFreqFromPostings(cand.size(), n, sparse, item_words_,
                                     support_sum, row_words_);
  }
  if (!postings) {
    for (size_t c = 0; c < cand.size(); ++c) {
      // NOLINT(cast: IntersectCount <= num_items <= kMaxItemUniverse = 2^20)
      (*freq)[c] = static_cast<uint32_t>(
          items.IntersectCount(data_.row_bitset(order_[cand[c]])));
    }
    return;
  }
  ++stats_.postings_scans;
  if (row_count_.empty()) {
    // NOLINT(hotpath: one-time growth on the first postings scan; every
    // later scan reuses the counter allocation-free)
    row_count_.assign(data_.num_rows(), 0);
  }
  uint32_t* count = row_count_.data();
  auto rows_of = [&](size_t item) -> const Bitset& {
    // NOLINT(cast: ForEach yields bit positions < num_items, an ItemId)
    return data_.item_rows(static_cast<ItemId>(item));
  };
  items.ForEach([&](size_t item) {
    rows_of(item).ForEach([count](size_t row) { ++count[row]; });
  });
  for (size_t c = 0; c < cand.size(); ++c) {
    (*freq)[c] = count[order_[cand[c]]];
  }
  items.ForEach([&](size_t item) {
    rows_of(item).ForEach([count](size_t row) { count[row] = 0; });
  });
}

void TopkSearch::ScanAndAbsorb(std::span<const uint32_t> cand,
                               const RowSet& items, uint32_t items_count,
                               std::vector<uint32_t>* absorbed,
                               std::vector<uint32_t>* live,
                               std::vector<uint32_t>* live_freq,
                               std::vector<uint32_t>* suffix_pos) {
  PooledVector<uint32_t> cand_freq_lease(&scratch_);
  std::vector<uint32_t>& cand_freq = *cand_freq_lease;
  CountFreq(cand, items, &cand_freq);
  for (size_t c = 0; c < cand.size(); ++c) {
    const uint32_t p = cand[c];
    const uint32_t f = cand_freq[c];
    if (f == items_count) {
      // NOLINT(hotpath: pooled lease retains capacity across nodes)
      absorbed->push_back(p);
    } else if (f > 0) {
      // NOLINT(hotpath: pooled lease retains capacity across nodes)
      live->push_back(p);
      live_freq->push_back(f);  // NOLINT(hotpath: pooled lease, as above)
    }
  }
  for (uint32_t p : *absorbed) {
    in_x_[p] = 1;
    // NOLINT(hotpath: DFS stack retains capacity; amortized O(1))
    x_stack_.push_back(p);
    IsPos(p) ? ++xp_ : ++xn_;
  }
  // Positive candidates at positions after live[i] — the only rows that
  // can still raise a child subtree's support beyond X.
  // NOLINT(hotpath: pooled lease retains capacity across nodes)
  suffix_pos->assign(live->size() + 1, 0);
  for (size_t i = live->size(); i-- > 0;) {
    (*suffix_pos)[i] = (*suffix_pos)[i + 1] + (IsPos((*live)[i]) ? 1 : 0);
  }
}

bool TopkSearch::HeldEarlier(const RowSet& items, uint32_t items_count,
                             uint32_t p) const {
  auto holds = [&](uint32_t q) {
    return !in_x_[q] && items.IsSubsetOf(data_.row_bitset(order_[q]));
  };
  if (items_count < p) {
    // Finding the rarest item costs items_count probes, so it pays only
    // when that is below the p-row walk.
    uint32_t rarest = 0;
    uint32_t rarest_support = UINT32_MAX;
    items.ForEach([&](size_t item) {
      if (item_support_[item] < rarest_support) {
        rarest_support = item_support_[item];
        // NOLINT(cast: ForEach yields bit positions < num_items, an ItemId)
        rarest = static_cast<uint32_t>(item);
      }
    });
    if (row_words_ + rarest_support < p) {
      const Bitset& rows = data_.item_rows(rarest);
      for (size_t r = rows.FindFirst(); r < rows.size();
           r = rows.FindNext(r)) {
        const uint32_t q = position_of_[r];
        if (q < p && holds(q)) return true;
      }
      return false;
    }
  }
  for (uint32_t q = 0; q < p; ++q) {
    if (holds(q)) return true;
  }
  return false;
}

void TopkSearch::Descend(const RowSet& items, std::span<const uint32_t> live,
                         uint32_t child_count, size_t i) {
  const uint32_t p = live[i];
  if (rowset_scratch_.size() <= depth_) {
    // NOLINT(hotpath: one-time growth per depth first reached; every
    // later node at this depth reuses the slot allocation-free)
    rowset_scratch_.resize(depth_ + 1);
  }
  RowSet& child_items = rowset_scratch_[depth_];
  items.IntersectAdaptiveInto(data_.row_bitset(order_[p]), &child_items);
  // Step 7, run before the child is visited: a skipped earlier row
  // containing I(X ∪ {p}) means the child duplicates an earlier branch
  // (X' != R(I(X')) there and at every descendant), so nothing in it may
  // be emitted and — when the pruning is enabled — it is not visited.
  // Redundancy propagates downward (the earlier row also contains every
  // descendant's smaller I), so in ablation mode each descendant's own
  // check re-detects it. In a shard, the same check hands a node that a
  // row before the scope holds to the earlier shard that enumerates it.
  const bool child_closed = !HeldEarlier(child_items, child_count, p);
  if (!child_closed) {
    ++stats_.pruned_backward;
    if (opt_.use_backward_pruning) return;
  }
  in_x_[p] = 1;
  x_stack_.push_back(p);  // NOLINT(hotpath: stack keeps capacity)
  IsPos(p) ? ++xp_ : ++xn_;
  ++depth_;
  // The child's candidates are the live rows after p: rows that share no
  // item with I(X) share none with the smaller I(X ∪ {p}) either.
  Visit(live.subspan(i + 1), child_items, child_count, child_closed);
  --depth_;
  IsPos(p) ? --xp_ : --xn_;
  x_stack_.pop_back();
  in_x_[p] = 0;
}

void TopkSearch::MineRoot(const RowSet& items, uint32_t items_count) {
  ++stats_.nodes_visited;
  if (opt_.deadline.Expired()) {
    timed_out_ = true;
    return;
  }
  std::vector<uint32_t> cand(data_.num_rows() - opt_.begin_pos);
  std::iota(cand.begin(), cand.end(), opt_.begin_pos);

  uint32_t rp = 0;
  for (uint32_t p : cand) {
    if (IsPos(p)) ++rp;
  }

  MaybeRaiseMinsup();
  Significance cut;  // the root's admission cut cache, used as in Visit

  if (opt_.use_bound_pruning && Hopeless(rp, 0, cand, &cut)) {
    ++stats_.pruned_bounds;
    return;
  }
  std::vector<uint32_t> absorbed;
  std::vector<uint32_t> live;
  std::vector<uint32_t> live_freq;
  std::vector<uint32_t> suffix_pos;
  ScanAndAbsorb(cand, items, items_count, &absorbed, &live, &live_freq,
                &suffix_pos);
  if (opt_.use_bound_pruning &&
      Hopeless(xp_ + suffix_pos[0], xn_, live, &cut)) {
    ++stats_.pruned_bounds;
    return;
  }
  EmitAt(items, cand, &cut);

  // The first-level children's checks share one cut cache of their own,
  // started empty. The root's `cut` would be sound for them too (it was
  // folded over a superset of their rows), but it could settle other
  // checks without a scan and so move cut_rows_scanned.
  //
  // Shard scope: only children at positions below first_level_end are
  // enumerated. Children at or past it root subtrees whose every closed
  // group has its earliest non-absorbed row in a LATER shard's owned
  // range — that shard mines them. live is ascending in position, so the
  // eligible children are a prefix.
  Significance child_cut;
  for (size_t i = 0; i < live.size() && live[i] < opt_.first_level_end;
       ++i) {
    if (timed_out_ || opt_.deadline.Expired()) {
      timed_out_ = true;
      break;
    }
    if (opt_.use_bound_pruning &&
        ChildHopeless(live[i], suffix_pos[i + 1], live, &child_cut)) {
      ++stats_.pruned_bounds;
      continue;
    }
    // `items` is the caller's root item set, never a per-depth scratch
    // slot, so Descend's slot write cannot alias it.
    Descend(items, live, live_freq[i], i);
  }
}

void TopkSearch::Finalize(const Bitset& frequent_items, TopkResult* result) {
  result->per_row.assign(data_.num_rows(), {});
  for (uint32_t pos : positive_positions_) {
    for (const HandlePtr& handle : lists_.at(pos)) {
      if (!handle->provisional) continue;
      // Close the seeded single item: its upper bound was never emitted
      // (the emitting node was pruned as strictly-dominated).
      Bitset closure = data_.RowSupportSet(handle->group.row_support);
      closure.IntersectWith(frequent_items);
      handle->group.antecedent = std::move(closure);
      handle->provisional = false;
    }
    lists_.Export(pos, &result->per_row[order_[pos]]);
  }
  result->effective_min_support =
      opt_.dynamic_min_support
          ? lists_.EffectiveMinsup(initial_minsup_, positive_positions_)
          : initial_minsup_;
}

TopkResult TopkSearch::Run() {
  Stopwatch timer;
  const Status options_status = opt_.Validate();
  TOPKRGS_CHECK(options_status.ok(), options_status.message().c_str());
  TOPKRGS_CHECK(opt_.begin_pos <= data_.num_rows(),
                "shard scope begins past the last row");
  initial_minsup_ = std::max<uint32_t>(1, opt_.min_support);
  minsup_ = initial_minsup_;

  const Bitset frequent = FrequentItems(data_, consequent_, initial_minsup_);
  switch (opt_.row_order) {
    case TopkMinerOptions::RowOrder::kClassDominantWeighted:
      order_ = ClassDominantOrder(data_, consequent_, frequent);
      break;
    case TopkMinerOptions::RowOrder::kClassDominant:
      // Empty weight set keeps rows in original order within each class.
      order_.clear();
      for (RowId r = 0; r < data_.num_rows(); ++r) {
        if (data_.label(r) == consequent_) order_.push_back(r);
      }
      for (RowId r = 0; r < data_.num_rows(); ++r) {
        if (data_.label(r) != consequent_) order_.push_back(r);
      }
      break;
    case TopkMinerOptions::RowOrder::kNatural:
      order_.resize(data_.num_rows());
      for (RowId r = 0; r < data_.num_rows(); ++r) order_[r] = r;
      break;
  }
  position_of_.assign(data_.num_rows(), 0);
  pos_positive_.assign(data_.num_rows(), 0);
  positive_positions_.clear();
  for (uint32_t pos = 0; pos < order_.size(); ++pos) {
    position_of_[order_[pos]] = pos;
    pos_positive_[pos] = data_.label(order_[pos]) == consequent_ ? 1 : 0;
    if (pos_positive_[pos] != 0 && pos >= opt_.begin_pos) {
      positive_positions_.push_back(pos);
    }
  }
  item_support_.resize(data_.num_items());
  for (ItemId item = 0; item < data_.num_items(); ++item) {
    item_support_[item] = data_.ItemSupport(item);
  }
  item_words_ = (data_.num_items() + 63) / 64;
  row_words_ = (data_.num_rows() + 63) / 64;
  in_x_.assign(data_.num_rows(), 0);
  lists_ = TopkLists(data_.num_rows(), opt_.k);

  if (opt_.seed_single_items) SeedSingleItems(frequent);

  const uint32_t items_count = static_cast<uint32_t>(frequent.Count());
  if (items_count > 0 && !positive_positions_.empty()) {
    // The root item set is (near-)dense by construction; descendants
    // re-decide their representation per node as I(X) shrinks.
    const RowSet root_items = RowSet::FromBitset(frequent);
    MineRoot(root_items, items_count);
  }

  TopkResult result;
  Finalize(frequent, &result);
  stats_.timed_out = timed_out_;
  stats_.seconds = timer.ElapsedSeconds();
  result.stats = stats_;
  result.ValidateInvariants(opt_.k);
  return result;
}

}  // namespace

Status TopkMinerOptions::Validate() const {
  if (k < 1) {
    return Status::InvalidArgument("TopkMinerOptions: k must be >= 1");
  }
  if ((begin_pos != 0 || first_level_end != UINT32_MAX) &&
      row_order != RowOrder::kClassDominantWeighted) {
    return Status::InvalidArgument(
        "TopkMinerOptions: a shard scope requires the default row order "
        "kClassDominantWeighted (begin_pos and first_level_end are "
        "positions in the planner's ORD, which only that order reproduces)");
  }
  return Status::OK();
}

bool TopkResult::CheckInvariants(uint32_t k, std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  for (size_t row = 0; row < per_row.size(); ++row) {
    const auto& list = per_row[row];
    if (list.size() > k) {
      return fail("row " + std::to_string(row) + " holds " +
                  std::to_string(list.size()) + " groups, more than k = " +
                  std::to_string(k));
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const RuleGroupPtr& group = list[i];
      if (group == nullptr) {
        return fail("row " + std::to_string(row) + " holds a null group");
      }
      std::string group_error;
      if (!group->CheckInvariants(&group_error)) {
        return fail("row " + std::to_string(row) + " rank " +
                    std::to_string(i + 1) + ": " + group_error);
      }
      if (row < group->row_support.size() && !group->row_support.Test(row)) {
        return fail("row " + std::to_string(row) + " rank " +
                    std::to_string(i + 1) + " group does not cover the row");
      }
      if (i > 0 &&
          CompareSignificance(list[i - 1]->support,
                              list[i - 1]->antecedent_support, group->support,
                              group->antecedent_support) < 0) {
        return fail("row " + std::to_string(row) +
                    " list not sorted by significance at rank " +
                    std::to_string(i + 1));
      }
      for (size_t j = 0; j < i; ++j) {
        if (list[j] == group) {
          return fail("row " + std::to_string(row) +
                      " lists the same group twice (ranks " +
                      std::to_string(j + 1) + " and " + std::to_string(i + 1) +
                      ")");
        }
      }
    }
  }
  return true;
}

void TopkResult::ValidateInvariants(uint32_t k) const {
#if TOPKRGS_DCHECK_IS_ON()
  std::string error;
  TKRGS_DCHECK(CheckInvariants(k, &error), error.c_str());
#else
  (void)k;
#endif
}

namespace {

/// Collapses `candidates` (scan order) to the distinct rowsets, keeping
/// the first occurrence of each and preserving scan order.
///
/// The hash only buckets the equality probes — it never decides order:
/// output order is the candidates' own order, the membership index is an
/// ORDERED map (no hash-bucket iteration anywhere), and within a bucket
/// the candidate indices are probed in sorted (ascending, i.e. scan)
/// order. Salting the hash therefore reshuffles buckets without moving a
/// single output element — pinned by the DistinctGroupsHashSaltInvariant
/// regression test, which is what licenses the hash in this
/// deterministic zone at all.
std::vector<RuleGroupPtr> DedupByRowSupport(
    const std::vector<const RuleGroupPtr*>& candidates, uint64_t hash_salt) {
  std::vector<RuleGroupPtr> out;
  std::map<uint64_t, std::vector<size_t>> seen;  // salted hash -> out indices
  for (const RuleGroupPtr* gp : candidates) {
    const RuleGroupPtr& g = *gp;
    // SplitMix64 finalizer over (rowset hash ^ salt): any salt yields a
    // usable bucketing function, so tests can sweep several.
    uint64_t h = g->row_support.Hash() ^ hash_salt;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    std::vector<size_t>& bucket = seen[h];
    TKRGS_DCHECK_SORTED(bucket.begin(), bucket.end(),
                        [](size_t a, size_t b) { return a < b; },
                        "dedup probe order must be scan order, never bucket "
                        "layout");
    bool dup = false;
    for (size_t idx : bucket) {
      if (out[idx]->row_support == g->row_support) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(out.size());  // appended ascending: stays sorted
      out.push_back(g);
    }
  }
  return out;
}

}  // namespace

std::vector<RuleGroupPtr> TopkResult::DistinctGroups(uint64_t hash_salt) const {
  std::vector<const RuleGroupPtr*> candidates;
  for (const auto& list : per_row) {
    for (const RuleGroupPtr& g : list) candidates.push_back(&g);
  }
  return DedupByRowSupport(candidates, hash_salt);
}

std::vector<RuleGroupPtr> TopkResult::GroupsAtRank(uint32_t j,
                                                   uint64_t hash_salt) const {
  TOPKRGS_CHECK(j >= 1, "rank is 1-based");
  std::vector<const RuleGroupPtr*> candidates;
  for (const auto& list : per_row) {
    if (list.size() < j) continue;
    candidates.push_back(&list[j - 1]);
  }
  return DedupByRowSupport(candidates, hash_salt);
}

TopkResult MineTopkRGS(const DiscreteDataset& data, ClassLabel consequent,
                       const TopkMinerOptions& options) {
  TopkSearch search(data, consequent, options);
  return search.Run();
}

}  // namespace topkrgs
