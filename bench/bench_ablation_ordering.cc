// Ablation A2 (DESIGN.md): the effect of the row enumeration order on
// MineTopkRGS. The paper sorts rows in class dominant order with ascending
// frequent-item counts within each class (§4.1.2) and calls class dominance
// essential for the confidence-based pruning.

#include "bench_common.h"

namespace topkrgs {
namespace bench {
namespace {

int Run() {
  const double budget = PointBudgetSeconds(20.0);
  std::printf("=== Ablation A2: row enumeration order ===\n");
  std::printf("(k = 10, minsup = 0.8 x class size, budget %.0fs/point)\n\n",
              budget);

  const std::vector<std::pair<std::string, TopkMinerOptions::RowOrder>> orders =
      {{"class-dom + weight", TopkMinerOptions::RowOrder::kClassDominantWeighted},
       {"class-dominant", TopkMinerOptions::RowOrder::kClassDominant},
       {"natural order", TopkMinerOptions::RowOrder::kNatural}};

  for (const DatasetProfile& profile :
       {DatasetProfile::ALL(), DatasetProfile::PC()}) {
    BenchDataset d = Load(profile);
    const DiscreteDataset& train = d.pipeline.train;
    const uint32_t minsup = MinSupportFromFrac(0.8, train.ClassCounts()[1]);

    std::printf("--- Dataset %s (minsup = %u) ---\n", profile.name.c_str(),
                minsup);
    PrintTableHeader("row order", {"seconds", "nodes"});
    for (const auto& [name, order] : orders) {
      TopkMinerOptions opt;
      opt.k = 10;
      opt.min_support = minsup;
      opt.row_order = order;
      opt.deadline = Deadline(budget);  // fresh budget per variant
      const TopkResult r = MineTopkRGS(train, 1, opt);
      char secs[32], nodes[32];
      std::snprintf(secs, sizeof(secs), "%s%.3f",
                    r.stats.timed_out ? ">" : "", r.stats.seconds);
      std::snprintf(nodes, sizeof(nodes), "%llu",
                    static_cast<unsigned long long>(r.stats.nodes_visited));
      PrintTableRow(name, {secs, nodes});
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkrgs

int main() { return topkrgs::bench::Run(); }
