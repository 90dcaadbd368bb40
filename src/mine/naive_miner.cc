#include "mine/naive_miner.h"

#include <algorithm>

#include "mine/miner_common.h"
#include "util/status.h"

namespace topkrgs {

std::vector<RuleGroup> NaiveRuleGroups(const DiscreteDataset& data,
                                       ClassLabel consequent,
                                       uint32_t min_support) {
  const uint32_t n = data.num_rows();
  TOPKRGS_CHECK(n <= 24, "NaiveRuleGroups is exponential; use small data");
  min_support = std::max<uint32_t>(1, min_support);

  const Bitset frequent = FrequentItems(data, consequent, min_support);
  const Bitset class_rows = data.ClassRowset(consequent);

  std::vector<RuleGroup> groups;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    Bitset rows(n);
    for (uint32_t r = 0; r < n; ++r) {
      if ((mask >> r) & 1) rows.Set(r);
    }
    // I(X) over frequent items.
    Bitset items = frequent;
    rows.ForEach([&](size_t r) {
      items.IntersectWith(data.row_bitset(static_cast<RowId>(r)));
    });
    if (items.None()) continue;
    // Closed row sets only: X == R(I(X)).
    const Bitset closure_rows = data.ItemSupportSet(items);
    if (!(closure_rows == rows)) continue;
    const uint32_t support =
        static_cast<uint32_t>(rows.IntersectCount(class_rows));
    if (support < min_support) continue;
    RuleGroup g;
    g.antecedent = std::move(items);
    g.row_support = rows;
    g.consequent = consequent;
    g.support = support;
    g.antecedent_support = static_cast<uint32_t>(rows.Count());
    groups.push_back(std::move(g));
  }
  return groups;
}

std::vector<std::vector<RuleGroup>> NaiveTopkRGS(const DiscreteDataset& data,
                                                 ClassLabel consequent,
                                                 uint32_t min_support,
                                                 uint32_t k) {
  std::vector<RuleGroup> groups =
      NaiveRuleGroups(data, consequent, min_support);
  // Most significant first; stable within ties.
  std::stable_sort(groups.begin(), groups.end(),
                   [](const RuleGroup& a, const RuleGroup& b) {
                     return CompareSignificance(a.support, a.antecedent_support,
                                                b.support,
                                                b.antecedent_support) > 0;
                   });
  std::vector<std::vector<RuleGroup>> per_row(data.num_rows());
  for (RowId r = 0; r < data.num_rows(); ++r) {
    if (data.label(r) != consequent) continue;
    for (const RuleGroup& g : groups) {
      if (per_row[r].size() >= k) break;
      if (g.row_support.Test(r)) per_row[r].push_back(g);
    }
  }
  return per_row;
}

}  // namespace topkrgs
