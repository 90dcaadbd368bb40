// Reproduces Figure 6 (e): MineTopkRGS runtime as the number of covering
// rule groups per row (k) grows, on the ALL and PC datasets.

#include "bench_common.h"

namespace topkrgs {
namespace bench {
namespace {

int Run() {
  const double budget = PointBudgetSeconds(60.0);
  std::printf("=== Figure 6 (e): MineTopkRGS runtime (s) vs k ===\n\n");
  const std::vector<uint32_t> ks = {1, 20, 40, 60, 80, 100};

  for (const DatasetProfile& profile :
       {DatasetProfile::ALL(), DatasetProfile::PC()}) {
    BenchDataset d = Load(profile);
    const DiscreteDataset& train = d.pipeline.train;
    const uint32_t minsup = MinSupportFromFrac(0.8, train.ClassCounts()[1]);

    std::printf("--- Dataset %s (minsup = %u) ---\n", profile.name.c_str(),
                minsup);
    PrintTableHeader("k", {"seconds", "nodes", "distinct groups"});
    for (uint32_t k : ks) {
      TopkMinerOptions opt;
      opt.k = k;
      opt.min_support = minsup;
      opt.deadline = Deadline(budget);
      const TopkResult result = MineTopkRGS(train, 1, opt);
      char secs[32], nodes[32], groups[32];
      std::snprintf(secs, sizeof(secs), "%s%.3f",
                    result.stats.timed_out ? ">" : "", result.stats.seconds);
      std::snprintf(nodes, sizeof(nodes), "%llu",
                    static_cast<unsigned long long>(result.stats.nodes_visited));
      std::snprintf(groups, sizeof(groups), "%zu",
                    result.DistinctGroups().size());
      PrintTableRow(std::to_string(k), {secs, nodes, groups});
    }
    std::printf("\n");
  }
  std::printf("Paper shape: runtime grows monotonically with k.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkrgs

int main() { return topkrgs::bench::Run(); }
