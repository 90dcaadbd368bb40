#include "classify/find_lb.h"

#include <algorithm>
#include <limits>

#include "core/stats.h"
#include "util/hot_path.h"
#include "util/status.h"

namespace topkrgs {

std::vector<double> ItemScoresFromDiscrete(const DiscreteDataset& data) {
  std::vector<double> scores(data.num_items(), 0.0);
  const std::vector<uint32_t> total = data.ClassCounts();
  for (ItemId item = 0; item < data.num_items(); ++item) {
    std::vector<uint32_t> with(data.num_classes(), 0);
    data.item_rows(item).ForEach([&](size_t r) {
      ++with[data.label(static_cast<RowId>(r))];
    });
    std::vector<uint32_t> without(data.num_classes(), 0);
    for (uint32_t c = 0; c < data.num_classes(); ++c) {
      without[c] = total[c] - with[c];
    }
    scores[item] = InformationGain(total, {with, without});
  }
  return scores;
}

namespace {

/// The lower bound rule of `group` with the given antecedent.
Rule BoundRule(const RuleGroup& group, Bitset antecedent) {
  return Rule{std::move(antecedent), group.consequent, group.support,
              group.antecedent_support};
}

/// The search behind both lower-bound enumerations. Each row outside R(A)
/// lacks some items of the upper bound A: that set is the row's edge.
/// A' ⊆ A has R(A') == R(A) (Lemma 5.1 (2)) iff it hits every edge, and
/// is minimal (Lemma 5.1 (3)) iff each of its items also hits an edge no
/// other item of A' hits, a private edge. So lower bounds are minimal
/// transversals (Segal et al., arXiv 1808.01703), or in Balcázar's terms
/// (arXiv 1012.0735) the minimal generators of the closure A.
///
/// Run() visits index sets into `items` by size, then lexicographically
/// (a breadth-first walk's order), in one depth-first pass per size. Each
/// level keeps the edges its prefix hits once and more than once. A prefix
/// that hits every edge, or holds an item with no private edge, has no
/// minimal superset and is not extended.
class TransversalSearch {
 public:
  TransversalSearch(const DiscreteDataset& data, const RuleGroup& group,
                    const std::vector<ItemId>& items, uint32_t max_depth)
      : data_(data),
        group_(group),
        items_(items),
        max_depth_(std::min<size_t>(max_depth, items.size())) {
    const Bitset inside = data.ItemSupportSet(group.antecedent);
    std::vector<RowId> outside;
    for (RowId r = 0; r < data.num_rows(); ++r) {
      if (!inside.Test(r)) outside.push_back(r);
    }
    words_ = (outside.size() + 63) / 64;
    missing_.assign(items.size() * words_, 0);
    for (size_t i = 0; i < items.size(); ++i) {
      const Bitset& rows = data.item_rows(items[i]);
      for (size_t e = 0; e < outside.size(); ++e) {
        if (!rows.Test(outside[e])) {
          missing_[i * words_ + e / 64] |= uint64_t{1} << (e % 64);
        }
      }
    }
    hit_.assign((max_depth_ + 1) * words_, 0);
    multi_.assign(hit_.size(), 0);
    if (outside.size() % 64 != 0) {
      // The empty prefix counts the padding bits past the last edge as hit
      // twice, so they never read as unhit or as a private edge.
      const uint64_t pad = ~uint64_t{0} << (outside.size() % 64);
      hit_[words_ - 1] = pad;
      multi_[words_ - 1] = pad;
    }
    members_.assign(max_depth_, 0);
  }

  /// Replaces *found with the lower bound rules of size 1..max_depth over
  /// indices [0, window), in the order above, stopping at `max_bounds`
  /// rules (0 = no limit) or after `max_probes` full-size candidates
  /// (leaf probes). Returns whether the probes ran out.
  bool Run(size_t window, uint64_t max_probes, uint64_t max_bounds,
           std::vector<Rule>* found) {
    found->clear();
    found_ = found;
    probes_ = 0;
    max_probes_ = max_probes;
    max_bounds_ = max_bounds;
    for (uint32_t depth = 1; depth <= max_depth_; ++depth) {
      const uint64_t before = probes_;
      if (!Walk(0, 0, depth, window)) break;
      if (probes_ == before) break;  // no open prefix of size depth - 1
    }
    return probes_ >= max_probes_;
  }

 private:
  enum class Probe : uint8_t {
    kRedundant,  // an item has no private edge: no superset is minimal
    kPartial,    // every item is needed, and some edge is still unhit
    kMinimal,    // a minimal transversal: a lower bound
  };

  /// Walks the size-`depth` index sets that extend members_[0, len) with
  /// indices >= from. Returns false to stop the whole search. Hot, like
  /// Extend: only a found lower bound allocates (its rule).
  TKRGS_HOT bool Walk(uint32_t len, uint32_t from, uint32_t depth,
                      size_t window) {
    const bool leaf = len + 1 == depth;
    // Leave room for the depth - len - 1 larger indices still to come.
    for (uint32_t index = from; index + (depth - len - 1) < window; ++index) {
      if (leaf) {
        if (probes_ >= max_probes_) return false;
        ++probes_;
        if (Extend(len, index) != Probe::kMinimal) continue;
        // NOLINT(hotpath: once per lower bound found, at most max_bounds)
        found_->push_back(PrefixRule(depth));
        if (found_->size() == max_bounds_) return false;
      } else if (Extend(len, index) == Probe::kPartial &&
                 !Walk(len + 1, index + 1, depth, window)) {
        return false;
      }
    }
    return true;
  }

  /// Probe kernel: appends `index` to members_[0, len), derives level
  /// len + 1's hit and hit-twice words from level len's, and classifies
  /// the new prefix. Hot: every node of the search is one call, and all
  /// its state lives in buffers sized once by the constructor.
  TKRGS_HOT Probe Extend(uint32_t len, uint32_t index) {
    // data() + offset: with no edges the buffers are empty.
    const uint64_t* missing = missing_.data() + index * words_;
    const uint64_t* hit = hit_.data() + len * words_;
    const uint64_t* multi = multi_.data() + len * words_;
    uint64_t* next_hit = hit_.data() + (len + 1) * words_;
    uint64_t* next_multi = multi_.data() + (len + 1) * words_;
    bool covers = true;
    for (size_t w = 0; w < words_; ++w) {
      next_multi[w] = multi[w] | (hit[w] & missing[w]);
      next_hit[w] = hit[w] | missing[w];
      covers = covers && next_hit[w] == ~uint64_t{0};
    }
    members_[len] = index;
    // One item that hits every edge is minimal, also when there are none.
    if (len == 0 && covers) return Probe::kMinimal;
    for (uint32_t m = 0; m <= len; ++m) {
      const uint64_t* own = missing_.data() + members_[m] * words_;
      bool has_private = false;
      for (size_t w = 0; w < words_ && !has_private; ++w) {
        has_private = (own[w] & ~next_multi[w]) != 0;
      }
      if (!has_private) return Probe::kRedundant;
    }
    return covers ? Probe::kMinimal : Probe::kPartial;
  }

  /// The lower bound rule made of the items of members_[0, size).
  Rule PrefixRule(uint32_t size) const {
    Bitset antecedent(data_.num_items());
    for (uint32_t i = 0; i < size; ++i) antecedent.Set(items_[members_[i]]);
    return BoundRule(group_, std::move(antecedent));
  }

  const DiscreteDataset& data_;
  const RuleGroup& group_;
  const std::vector<ItemId>& items_;
  size_t max_depth_;
  size_t words_ = 0;               // words per edge set
  std::vector<uint64_t> missing_;  // per index: the edges lacking its item
  std::vector<uint64_t> hit_;      // per level: edges its prefix hits
  std::vector<uint64_t> multi_;    // per level: edges hit more than once
  std::vector<uint32_t> members_;  // the current prefix, as indices
  std::vector<Rule>* found_ = nullptr;
  uint64_t probes_ = 0;
  uint64_t max_probes_ = 0;
  uint64_t max_bounds_ = 0;
};

}  // namespace

std::vector<Rule> FindLowerBounds(const DiscreteDataset& data,
                                  const RuleGroup& group,
                                  const std::vector<double>& item_scores,
                                  const FindLbOptions& options) {
  const uint32_t nl = std::max<uint32_t>(1, options.num_lower_bounds);

  // Step 1: rank the upper bound's items by descending score.
  std::vector<ItemId> ranked = group.antecedent.ToVector();
  std::vector<double> scores =
      item_scores.empty() ? ItemScoresFromDiscrete(data) : item_scores;
  TOPKRGS_CHECK(scores.size() >= data.num_items(), "item_scores too short");
  std::stable_sort(ranked.begin(), ranked.end(), [&](ItemId a, ItemId b) {
    return scores[a] > scores[b];
  });

  // Step 2: search the shortest lower bounds among a window of top-ranked
  // items, doubling the window until nl turn up, so the common case
  // (short lower bounds among the most discriminative genes) stays cheap.
  TransversalSearch search(data, group, ranked, options.max_depth);
  std::vector<Rule> found;
  for (uint32_t window = std::min<size_t>(16, ranked.size());;
       window = std::min<size_t>(static_cast<size_t>(window) * 2,
                                 ranked.size())) {
    const bool capped = search.Run(window, options.max_candidates, nl, &found);
    if (found.size() >= nl || window == ranked.size() || capped) break;
  }

  if (found.empty() && !ranked.empty()) {
    // The bounded search can come up empty when every minimal lower bound
    // is longer than max_depth (e.g. a closure that needs several items to
    // exclude every outside row). Guarantee at least one rule by greedy
    // minimization: drop items (least discriminative first) whenever the
    // support set stays unchanged.
    const uint32_t target_rows = group.antecedent_support;
    Bitset antecedent = group.antecedent;
    for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {
      if (antecedent.Count() <= 1) break;
      Bitset trial = antecedent;
      trial.Reset(*it);
      if (data.ItemSupportSet(trial).Count() == target_rows) {
        antecedent = std::move(trial);
      }
    }
    found.push_back(BoundRule(group, std::move(antecedent)));
  }
  return found;
}

std::vector<Rule> FindAllLowerBounds(const DiscreteDataset& data,
                                     const RuleGroup& group,
                                     uint32_t max_depth, uint64_t max_bounds) {
  const std::vector<ItemId> items = group.antecedent.ToVector();
  TransversalSearch search(data, group, items, max_depth);
  std::vector<Rule> found;
  search.Run(items.size(), std::numeric_limits<uint64_t>::max(), max_bounds,
             &found);
  return found;
}

}  // namespace topkrgs
