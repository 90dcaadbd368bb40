#include "mine/carpenter.h"

#include <algorithm>
#include <numeric>

#include "mine/projection.h"
#include "util/status.h"

namespace topkrgs {

namespace {

class CarpenterSearch {
 public:
  CarpenterSearch(const DiscreteDataset& data, const CarpenterOptions& options)
      : data_(data), opt_(options) {}

  CarpenterResult Run();

 private:
  template <typename Proj>
  void Visit(const Proj& proj, const Bitset& items, uint32_t items_count,
             bool closed_on_left);

  void EmitAt(const Bitset& items);

  const DiscreteDataset& data_;
  const CarpenterOptions& opt_;
  uint32_t minsup_ = 1;

  std::vector<RowId> order_;
  std::vector<uint32_t> x_stack_;
  std::vector<bool> in_x_;

  bool stopped_ = false;
  CarpenterResult result_;
};

void CarpenterSearch::EmitAt(const Bitset& items) {
  if (x_stack_.size() < minsup_) return;
  ClosedPattern pattern;
  pattern.items = items;
  pattern.support = static_cast<uint32_t>(x_stack_.size());
  Bitset rows(data_.num_rows());
  for (uint32_t pos : x_stack_) rows.Set(order_[pos]);
  pattern.rows = std::move(rows);
  result_.patterns.push_back(std::move(pattern));
  ++result_.stats.groups_emitted;
  if (opt_.max_patterns != 0 &&
      result_.stats.groups_emitted >= opt_.max_patterns) {
    stopped_ = true;
    result_.stats.timed_out = true;
  }
}

template <typename Proj>
void CarpenterSearch::Visit(const Proj& proj, const Bitset& items,
                            uint32_t items_count, bool closed_on_left) {
  if (stopped_) return;
  ++result_.stats.nodes_visited;
  if (opt_.deadline.Expired()) {
    stopped_ = true;
    result_.stats.timed_out = true;
    return;
  }
  if (items_count == 0) return;

  std::vector<uint32_t> cand;
  proj.Positions(&cand);
  std::erase_if(cand, [&](uint32_t p) { return in_x_[p]; });

  // Support bound: |X| plus every remaining candidate.
  if (x_stack_.size() + cand.size() < minsup_) {
    ++result_.stats.pruned_bounds;
    return;
  }

  std::vector<uint32_t> live;
  std::vector<uint32_t> live_freq;
  std::vector<uint32_t> absorbed;
  for (uint32_t p : cand) {
    const uint32_t f = proj.Freq(p);
    if (f == items_count) {
      absorbed.push_back(p);
    } else if (f > 0) {
      live.push_back(p);
      live_freq.push_back(f);
    }
  }
  for (uint32_t p : absorbed) {
    in_x_[p] = true;
    x_stack_.push_back(p);
  }

  if (closed_on_left) EmitAt(items);

  for (size_t i = 0; i < live.size() && !stopped_; ++i) {
    const uint32_t p = live[i];
    // Support bound per child: X plus the branch row plus later candidates.
    if (x_stack_.size() + 1 + (live.size() - i - 1) < minsup_) {
      ++result_.stats.pruned_bounds;
      break;  // later children have even fewer candidates
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
      continue;
    }
    in_x_[p] = true;
    x_stack_.push_back(p);
    Visit(proj.Child(p), child_items, live_freq[i], child_closed);
    x_stack_.pop_back();
    in_x_[p] = false;
  }

  for (auto it = absorbed.rbegin(); it != absorbed.rend(); ++it) {
    x_stack_.pop_back();
    in_x_[*it] = false;
  }
}

CarpenterResult CarpenterSearch::Run() {
  Stopwatch timer;
  minsup_ = std::max<uint32_t>(1, opt_.min_support);

  // Frequent items by total support (no class labels).
  Bitset frequent(data_.num_items());
  for (ItemId item = 0; item < data_.num_items(); ++item) {
    if (data_.ItemSupport(item) >= minsup_) frequent.Set(item);
  }
  // Rows ascending by frequent item count, as in CARPENTER.
  order_.resize(data_.num_rows());
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](RowId a, RowId b) {
    return data_.row_bitset(a).IntersectCount(frequent) <
           data_.row_bitset(b).IntersectCount(frequent);
  });
  in_x_.assign(data_.num_rows(), false);

  const uint32_t items_count = static_cast<uint32_t>(frequent.Count());
  if (items_count > 0 && data_.num_rows() > 0) {
    if (opt_.use_prefix_tree) {
      TreeProjection root(PrefixTree::BuildRoot(data_, order_, frequent));
      Visit(root, frequent, items_count, true);
    } else {
      VectorProjection root(&data_, &order_, frequent);
      Visit(root, frequent, items_count, true);
    }
  }
  result_.stats.seconds = timer.ElapsedSeconds();
  return std::move(result_);
}

}  // namespace

CarpenterResult MineCarpenter(const DiscreteDataset& data,
                              const CarpenterOptions& options) {
  CarpenterSearch search(data, options);
  return search.Run();
}

}  // namespace topkrgs
