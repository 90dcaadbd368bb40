#include "classify/cba.h"

#include <algorithm>
#include <numeric>

#include "classify/find_lb.h"
#include "mine/miner_common.h"
#include "mine/topk_miner.h"
#include "util/status.h"

namespace topkrgs {

void SortRulesByPrecedence(std::vector<Rule>* rules) {
  std::vector<uint32_t> index(rules->size());
  std::iota(index.begin(), index.end(), 0);
  std::stable_sort(index.begin(), index.end(), [&](uint32_t a, uint32_t b) {
    const Rule& ra = (*rules)[a];
    const Rule& rb = (*rules)[b];
    const int sig = CompareSignificance(ra.support, ra.antecedent_support,
                                        rb.support, rb.antecedent_support);
    if (sig != 0) return sig > 0;
    const size_t la = ra.antecedent.Count();
    const size_t lb = rb.antecedent.Count();
    if (la != lb) return la < lb;  // shorter rule first
    return a < b;                  // discovered earlier first
  });
  std::vector<Rule> sorted;
  sorted.reserve(rules->size());
  for (uint32_t i : index) sorted.push_back(std::move((*rules)[i]));
  *rules = std::move(sorted);
}

namespace {

/// The most frequent class of a histogram; the lowest label on ties.
ClassLabel Majority(const std::vector<uint32_t>& counts) {
  ClassLabel majority = 0;
  for (uint32_t c = 1; c < counts.size(); ++c) {
    // NOLINT(cast: c indexes the histogram, one count per class label)
    if (counts[c] > counts[majority]) majority = static_cast<ClassLabel>(c);
  }
  return majority;
}

}  // namespace

CbaClassifier CbaClassifier::FromParts(std::vector<Rule> rules,
                                       ClassLabel default_class) {
  CbaClassifier clf;
  clf.rules_ = std::move(rules);
  clf.default_class_ = default_class;
  return clf;
}

CbaClassifier CbaClassifier::TrainFromRules(const DiscreteDataset& train,
                                            std::vector<Rule> rules,
                                            bool apply_error_cut) {
  SortRulesByPrecedence(&rules);

  CbaClassifier clf;
  const uint32_t n = train.num_rows();
  std::vector<bool> covered(n, false);
  uint32_t remaining = n;

  const std::vector<uint32_t> class_counts = train.ClassCounts();
  const ClassLabel train_majority = Majority(class_counts);
  std::vector<uint32_t> class_remaining = class_counts;

  struct Step {
    uint32_t rule_errors;      // misclassified among rows this rule removed
    ClassLabel default_class;  // majority of the data remaining afterwards
    uint32_t default_errors;   // errors that default would make afterwards
  };
  std::vector<Step> steps;
  std::vector<Rule> selected;

  for (Rule& rule : rules) {
    if (remaining == 0) break;
    // Does the rule correctly classify some remaining row?
    bool correct = false;
    std::vector<RowId> matches;
    for (RowId r = 0; r < n; ++r) {
      if (covered[r]) continue;
      if (!rule.antecedent.IsSubsetOf(train.row_bitset(r))) continue;
      matches.push_back(r);
      if (train.label(r) == rule.consequent) correct = true;
    }
    if (!correct) continue;

    uint32_t rule_errors = 0;
    for (RowId r : matches) {
      covered[r] = true;
      --remaining;
      --class_remaining[train.label(r)];
      if (train.label(r) != rule.consequent) ++rule_errors;
    }
    // Once every training row is covered there is no remaining majority;
    // the default then falls back to the training majority.
    const ClassLabel majority =
        remaining == 0 ? train_majority : Majority(class_remaining);
    const uint32_t default_errors = remaining - class_remaining[majority];
    steps.push_back(Step{rule_errors, majority, default_errors});
    selected.push_back(std::move(rule));
  }

  // Step 4: cut the list at the prefix with the least total error.
  ClassLabel best_default = train_majority;
  uint32_t best_errors = n - class_counts[train_majority];  // no rules
  size_t best_len = 0;
  uint32_t cumulative = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    cumulative += steps[i].rule_errors;
    const uint32_t total = cumulative + steps[i].default_errors;
    if (total < best_errors) {
      best_errors = total;
      best_len = i + 1;
      best_default = steps[i].default_class;
    }
  }
  if (!apply_error_cut) {
    // Keep every coverage-selected rule; the default still comes from the
    // data left uncovered at the end of the coverage phase.
    best_len = steps.size();
    if (!steps.empty()) best_default = steps.back().default_class;
  }
  selected.resize(best_len);
  clf.rules_ = std::move(selected);
  clf.default_class_ = best_default;

  // Recompute the uncovered set w.r.t. the final (possibly truncated) list.
  std::vector<bool> final_covered(n, false);
  for (const Rule& rule : clf.rules_) {
    for (RowId r = 0; r < n; ++r) {
      if (!final_covered[r] && rule.antecedent.IsSubsetOf(train.row_bitset(r))) {
        final_covered[r] = true;
      }
    }
  }
  for (RowId r = 0; r < n; ++r) {
    if (!final_covered[r]) clf.uncovered_rows_.push_back(r);
  }
  return clf;
}

ClassLabel CbaClassifier::Predict(const Bitset& row_items,
                                  bool* used_default) const {
  for (const Rule& rule : rules_) {
    if (rule.antecedent.IsSubsetOf(row_items)) {
      if (used_default != nullptr) *used_default = false;
      return rule.consequent;
    }
  }
  if (used_default != nullptr) *used_default = true;
  return default_class_;
}

CbaClassifier::Prediction CbaClassifier::PredictDetailed(
    const Bitset& row_items) const {
  Prediction out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.antecedent.IsSubsetOf(row_items)) {
      out.label = rule.consequent;
      out.used_default = false;
      out.matched_rule = static_cast<int64_t>(i);
      out.confidence = rule.confidence();
      return out;
    }
  }
  out.label = default_class_;
  out.used_default = true;
  return out;
}

CbaClassifier TrainCba(const DiscreteDataset& train, const CbaOptions& options) {
  std::vector<Rule> rules;
  const std::vector<uint32_t> class_counts = train.ClassCounts();
  for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
    if (class_counts[cls] == 0) continue;
    TopkMinerOptions mopt;
    mopt.k = 1;
    mopt.min_support =
        MinSupportFromFrac(options.min_support_frac, class_counts[cls]);
    TopkResult mined =
        MineTopkRGS(train, static_cast<ClassLabel>(cls), mopt);
    FindLbOptions lopt;
    lopt.num_lower_bounds = 1;
    for (const RuleGroupPtr& group : mined.DistinctGroups()) {
      std::vector<Rule> lbs =
          FindLowerBounds(train, *group, options.item_scores, lopt);
      for (Rule& lb : lbs) {
        if (options.min_confidence > 0.0 &&
            lb.confidence() < options.min_confidence) {
          continue;
        }
        rules.push_back(std::move(lb));
      }
    }
  }
  return CbaClassifier::TrainFromRules(train, std::move(rules));
}

}  // namespace topkrgs
