// Rule exploration on the prostate-cancer-shaped dataset: mine top-k
// covering rule groups, inspect their lower bound rules gene by gene, and
// rank the genes the rules rely on — the kind of analysis behind the
// paper's "Biological Meaning" discussion (§6.2, Figure 8).
//
//   ./build/examples/rule_exploration

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

#include "topkrgs/topkrgs.h"

using namespace topkrgs;

int main() {
  GeneratedData data = GenerateMicroarray(DatasetProfile::PC());
  Pipeline pipeline = PreparePipeline(data.train, data.test);
  const DiscreteDataset& train = pipeline.train;
  std::printf("PC-shaped dataset: %u train rows, %u items from %u genes\n\n",
              train.num_rows(), train.num_items(),
              pipeline.discretization.num_selected_genes());

  // Mine the top-3 covering rule groups per row for the tumor class.
  TopkMinerOptions options;
  options.k = 3;
  options.min_support = MinSupportFromFrac(0.7, train.ClassCounts()[1]);
  TopkResult result = MineTopkRGS(train, 1, options);

  const auto groups = result.DistinctGroups();
  std::printf("Top-%u covering rule groups (minsup %u): %zu distinct groups, "
              "%llu nodes searched\n\n",
              options.k, options.min_support, groups.size(),
              static_cast<unsigned long long>(result.stats.nodes_visited));

  // For each group: the upper bound size and a few lower bound rules.
  FindLbOptions lb_options;
  lb_options.num_lower_bounds = 8;
  std::map<GeneId, uint32_t> gene_usage;
  for (size_t g = 0; g < groups.size(); ++g) {
    const RuleGroup& group = *groups[g];
    const auto lbs =
        FindLowerBounds(train, group, pipeline.item_scores, lb_options);
    if (g < 4) {
      std::printf("Group %zu: upper bound has %zu items, support %u, "
                  "confidence %.1f%%, %zu lower bounds found\n",
                  g, group.antecedent.Count(), group.support,
                  100.0 * group.confidence(), lbs.size());
      for (size_t i = 0; i < lbs.size() && i < 3; ++i) {
        std::string antecedent;
        lbs[i].antecedent.ForEach([&](size_t item) {
          if (!antecedent.empty()) antecedent += " AND ";
          antecedent += pipeline.discretization.ItemName(
              data.train, static_cast<ItemId>(item));
        });
        std::printf("    IF %s THEN tumor\n", antecedent.c_str());
      }
    }
    for (const Rule& lb : lbs) {
      lb.antecedent.ForEach([&](size_t item) {
        ++gene_usage[pipeline.discretization.item(static_cast<ItemId>(item))
                         .gene];
      });
    }
  }

  // Rank genes by how often the rules use them (the Figure 8 analysis).
  std::vector<std::pair<uint32_t, GeneId>> by_usage;
  for (const auto& [gene, count] : gene_usage) by_usage.push_back({count, gene});
  std::sort(by_usage.rbegin(), by_usage.rend());
  std::printf("\nGenes most used across all lower bound rules:\n");
  for (size_t i = 0; i < by_usage.size() && i < 8; ++i) {
    std::printf("  %-8s used %u times\n",
                data.train.gene_name(by_usage[i].second).c_str(),
                by_usage[i].first);
  }
  std::printf("\n%zu distinct genes participate in the mined rules.\n",
              by_usage.size());
  return 0;
}
