#include "mine/farmer.h"

#include <algorithm>
#include <vector>

#include "core/stats.h"
#include "mine/projection.h"
#include "util/status.h"

namespace topkrgs {

namespace {

constexpr double kConfEps = 1e-12;

class FarmerSearch {
 public:
  FarmerSearch(const DiscreteDataset& data, ClassLabel consequent,
               const FarmerOptions& options)
      : data_(data), consequent_(consequent), opt_(options) {}

  MiningResult Run();

 private:
  template <typename Proj>
  void Visit(const Proj& proj, const Bitset& items, uint32_t items_count,
             uint32_t branch_pos, bool closed_on_left);

  /// Confidence envelope test against the fixed threshold: prune when even
  /// best_sup positives over (best_sup + min_neg) rows falls short.
  bool Hopeless(uint32_t best_sup, uint32_t min_neg) const {
    if (best_sup < minsup_) return true;
    if (opt_.min_confidence <= 0.0) return false;
    const double conf_ub =
        static_cast<double>(best_sup) / (best_sup + min_neg);
    return conf_ub < opt_.min_confidence - kConfEps;
  }

  void EmitAt(const Bitset& items);

  const DiscreteDataset& data_;
  const ClassLabel consequent_;
  const FarmerOptions& opt_;

  std::vector<RowId> order_;
  uint32_t np_ = 0;
  uint32_t minsup_ = 1;

  std::vector<uint32_t> x_stack_;
  std::vector<bool> in_x_;
  uint32_t xp_ = 0;
  uint32_t xn_ = 0;

  bool stopped_ = false;
  MiningResult result_;
};

void FarmerSearch::EmitAt(const Bitset& items) {
  if (xp_ < minsup_) return;
  const double conf = static_cast<double>(xp_) / (xp_ + xn_);
  if (conf < opt_.min_confidence - kConfEps) return;
  if (opt_.min_chi_square > 0.0) {
    const uint32_t class_rows = np_;
    const uint32_t other_rows = data_.num_rows() - np_;
    const double chi = ChiSquare({{xp_, xn_},
                                  {class_rows - xp_, other_rows - xn_}});
    if (chi < opt_.min_chi_square) return;
  }
  RuleGroup group;
  group.antecedent = items;
  group.consequent = consequent_;
  group.support = xp_;
  group.antecedent_support = xp_ + xn_;
  Bitset rows(data_.num_rows());
  for (uint32_t pos : x_stack_) rows.Set(order_[pos]);
  group.row_support = std::move(rows);
  result_.groups.push_back(std::move(group));
  ++result_.stats.groups_emitted;
  if (opt_.max_groups != 0 && result_.stats.groups_emitted >= opt_.max_groups) {
    stopped_ = true;
    result_.stats.timed_out = true;
  }
}

template <typename Proj>
void FarmerSearch::Visit(const Proj& proj, const Bitset& items,
                         uint32_t items_count, uint32_t branch_pos,
                         bool closed_on_left) {
  if (stopped_) return;
  ++result_.stats.nodes_visited;
  if (opt_.deadline.Expired()) {
    stopped_ = true;
    result_.stats.timed_out = true;
    return;
  }
  if (items_count == 0) return;
  (void)branch_pos;

  std::vector<uint32_t> cand;
  proj.Positions(&cand);
  std::erase_if(cand, [&](uint32_t p) { return in_x_[p]; });

  uint32_t rp = 0;
  for (uint32_t p : cand) rp += (p < np_);

  // Loose bounds before scanning.
  if (opt_.use_bound_pruning && Hopeless(xp_ + rp, xn_)) {
    ++result_.stats.pruned_bounds;
    return;
  }

  std::vector<uint32_t> live;
  std::vector<uint32_t> live_freq;
  std::vector<uint32_t> absorbed;
  uint32_t mp = 0;
  for (uint32_t p : cand) {
    const uint32_t f = proj.Freq(p);
    if (f == items_count) {
      absorbed.push_back(p);
    } else if (f > 0) {
      live.push_back(p);
      live_freq.push_back(f);
      if (p < np_) ++mp;
    }
  }
  for (uint32_t p : absorbed) {
    in_x_[p] = true;
    x_stack_.push_back(p);
    p < np_ ? ++xp_ : ++xn_;
  }

  // Tight bounds after the scan.
  const bool pruned = opt_.use_bound_pruning && Hopeless(xp_ + mp, xn_);
  if (pruned) {
    ++result_.stats.pruned_bounds;
  } else {
    if (closed_on_left) EmitAt(items);
    std::vector<uint32_t> suffix_pos(live.size() + 1, 0);
    for (size_t i = live.size(); i-- > 0;) {
      suffix_pos[i] = suffix_pos[i + 1] + (live[i] < np_ ? 1 : 0);
    }
    // Backward check per child, before the child projection is built: a
    // skipped earlier row containing I(X ∪ {p}) marks the child subtree as
    // a duplicate of an earlier branch (it may emit nothing); with the
    // pruning enabled it is skipped without paying for the projection.
    for (size_t i = 0; i < live.size() && !stopped_; ++i) {
      const uint32_t p = live[i];
      if (opt_.use_bound_pruning) {
        // Per-child loose bounds: skip hopeless children before paying for
        // the intersection, backward scan, and projection.
        const uint32_t child_sup_ub =
            xp_ + (p < np_ ? 1 : 0) + suffix_pos[i + 1];
        const uint32_t child_min_neg = xn_ + (p < np_ ? 0 : 1);
        if (Hopeless(child_sup_ub, child_min_neg)) {
          ++result_.stats.pruned_bounds;
          continue;
        }
      }
      Bitset child_items = Intersect(items, data_.row_bitset(order_[p]));
      bool child_closed = true;
      for (uint32_t q = 0; q < p; ++q) {
        if (!in_x_[q] && child_items.IsSubsetOf(data_.row_bitset(order_[q]))) {
          child_closed = false;
          break;
        }
      }
      if (!child_closed) {
        ++result_.stats.pruned_backward;
        if (opt_.use_backward_pruning) continue;
      }
      in_x_[p] = true;
      x_stack_.push_back(p);
      p < np_ ? ++xp_ : ++xn_;
      Visit(proj.Child(p), child_items, live_freq[i], p, child_closed);
      p < np_ ? --xp_ : --xn_;
      x_stack_.pop_back();
      in_x_[p] = false;
    }
  }

  for (auto it = absorbed.rbegin(); it != absorbed.rend(); ++it) {
    const uint32_t p = *it;
    p < np_ ? --xp_ : --xn_;
    x_stack_.pop_back();
    in_x_[p] = false;
  }
}

MiningResult FarmerSearch::Run() {
  Stopwatch timer;
  minsup_ = std::max<uint32_t>(1, opt_.min_support);
  const Bitset frequent = FrequentItems(data_, consequent_, minsup_);
  std::vector<uint32_t> weights(data_.num_rows());
  for (RowId r = 0; r < data_.num_rows(); ++r) {
    // NOLINT(cast: IntersectCount <= num_items <= kMaxItemUniverse = 2^20)
    weights[r] = static_cast<uint32_t>(
        data_.row_bitset(r).IntersectCount(frequent));
  }
  order_ = ClassDominantOrder(data_.labels(), consequent_, weights);
  np_ = CountClassRows(data_, consequent_);
  in_x_.assign(data_.num_rows(), false);

  const uint32_t items_count = static_cast<uint32_t>(frequent.Count());
  if (items_count > 0 && np_ > 0) {
    switch (opt_.backend) {
      case FarmerOptions::Backend::kPrefixTree: {
        TreeProjection root(PrefixTree::BuildRoot(data_, order_, frequent));
        Visit(root, frequent, items_count, 0, /*closed_on_left=*/true);
        break;
      }
      case FarmerOptions::Backend::kVector: {
        VectorProjection root(&data_, &order_, frequent);
        Visit(root, frequent, items_count, 0, /*closed_on_left=*/true);
        break;
      }
    }
  }
  result_.stats.seconds = timer.ElapsedSeconds();
  return std::move(result_);
}

}  // namespace

MiningResult MineFarmer(const DiscreteDataset& data, ClassLabel consequent,
                        const FarmerOptions& options) {
  FarmerSearch search(data, consequent, options);
  return search.Run();
}

}  // namespace topkrgs
