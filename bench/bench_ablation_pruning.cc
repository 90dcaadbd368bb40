// Ablation A1 (DESIGN.md): contribution of MineTopkRGS's individual design
// choices — top-k pruning, backward pruning, the bound pruning, single-item
// seeding and the dynamic minsup raise — on the ALL and PC datasets. The
// prefix tree's contribution is Figure 6's FARMER vs FARMER+prefix. Every variant returns identical top-k lists (the
// test suite proves it); only the work differs.

#include "bench_common.h"

namespace topkrgs {
namespace bench {
namespace {

struct Variant {
  std::string name;
  TopkMinerOptions opt;
};

int Run() {
  const double budget = PointBudgetSeconds(20.0);
  std::printf("=== Ablation A1: MineTopkRGS pruning strategies ===\n");
  std::printf("(k = 10, minsup = 0.8 x class size, budget %.0fs/point)\n\n",
              budget);

  for (const DatasetProfile& profile :
       {DatasetProfile::ALL(), DatasetProfile::PC()}) {
    BenchDataset d = Load(profile);
    const DiscreteDataset& train = d.pipeline.train;
    TopkMinerOptions base;
    base.k = 10;
    base.min_support = MinSupportFromFrac(0.8, train.ClassCounts()[1]);

    std::vector<Variant> variants;
    variants.push_back({"full (paper)", base});
    {
      TopkMinerOptions o = base;
      o.use_topk_pruning = false;
      variants.push_back({"no top-k pruning", o});
    }
    {
      TopkMinerOptions o = base;
      o.use_backward_pruning = false;
      variants.push_back({"no backward prune", o});
    }
    {
      TopkMinerOptions o = base;
      o.use_bound_pruning = false;
      variants.push_back({"no bound pruning", o});
    }
    {
      TopkMinerOptions o = base;
      o.seed_single_items = false;
      variants.push_back({"no item seeding", o});
    }
    {
      TopkMinerOptions o = base;
      o.dynamic_min_support = false;
      variants.push_back({"no dynamic minsup", o});
    }

    std::printf("--- Dataset %s (minsup = %u) ---\n", profile.name.c_str(),
                base.min_support);
    PrintTableHeader("variant", {"seconds", "nodes", "bound prunes",
                                 "backward prunes"});
    for (const Variant& v : variants) {
      TopkMinerOptions opt = v.opt;
      opt.deadline = Deadline(budget);  // fresh budget per variant
      const TopkResult r = MineTopkRGS(train, 1, opt);
      char secs[32], nodes[32], bounds[32], back[32];
      std::snprintf(secs, sizeof(secs), "%s%.3f",
                    r.stats.timed_out ? ">" : "", r.stats.seconds);
      std::snprintf(nodes, sizeof(nodes), "%llu",
                    static_cast<unsigned long long>(r.stats.nodes_visited));
      std::snprintf(bounds, sizeof(bounds), "%llu",
                    static_cast<unsigned long long>(r.stats.pruned_bounds));
      std::snprintf(back, sizeof(back), "%llu",
                    static_cast<unsigned long long>(r.stats.pruned_backward));
      PrintTableRow(v.name, {secs, nodes, bounds, back});
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkrgs

int main() { return topkrgs::bench::Run(); }
