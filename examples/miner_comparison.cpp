// Miner comparison on one dataset: MineTopkRGS against FARMER (both
// variants), CHARM and CLOSET+ at a fixed minimum support — a one-row
// slice of Figure 6 you can run in seconds.
//
//   ./build/examples/miner_comparison

#include <cstdio>

#include "topkrgs/topkrgs.h"

using namespace topkrgs;

int main() {
  GeneratedData data = GenerateMicroarray(DatasetProfile::ALL());
  Pipeline pipeline = PreparePipeline(data.train, data.test);
  const DiscreteDataset& train = pipeline.train;
  const uint32_t minsup = MinSupportFromFrac(0.85, train.ClassCounts()[1]);
  const double budget = 15.0;

  std::printf("ALL-shaped dataset, consequent = class 1, minsup = %u, "
              "budget %.0fs per miner\n\n", minsup, budget);
  std::printf("%-22s %10s %12s %12s\n", "miner", "seconds", "nodes", "groups");

  auto report = [](const char* name, double seconds, uint64_t nodes,
                   uint64_t groups, bool dnf) {
    std::printf("%-22s %9.3f%s %12llu %12llu\n", name, seconds,
                dnf ? "+" : " ", static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(groups));
  };

  {
    TopkMinerOptions opt;
    opt.k = 1;
    opt.min_support = minsup;
    const TopkResult r = MineTopkRGS(train, 1, opt);
    report("MineTopkRGS k=1", r.stats.seconds, r.stats.nodes_visited,
           r.DistinctGroups().size(), r.stats.timed_out);
  }
  {
    TopkMinerOptions opt;
    opt.k = 100;
    opt.min_support = minsup;
    const TopkResult r = MineTopkRGS(train, 1, opt);
    report("MineTopkRGS k=100", r.stats.seconds, r.stats.nodes_visited,
           r.DistinctGroups().size(), r.stats.timed_out);
  }
  {
    FarmerOptions opt;
    opt.min_support = minsup;
    opt.min_confidence = 0.9;
    opt.backend = FarmerOptions::Backend::kPrefixTree;
    opt.deadline = Deadline(budget);
    const MiningResult r = MineFarmer(train, 1, opt);
    report("FARMER+prefix c=0.9", r.stats.seconds, r.stats.nodes_visited,
           r.stats.groups_emitted, r.stats.timed_out);
  }
  {
    FarmerOptions opt;
    opt.min_support = minsup;
    opt.min_confidence = 0.9;
    opt.deadline = Deadline(budget);
    const MiningResult r = MineFarmer(train, 1, opt);
    report("FARMER c=0.9", r.stats.seconds, r.stats.nodes_visited,
           r.stats.groups_emitted, r.stats.timed_out);
  }
  {
    CharmOptions opt;
    opt.min_support = minsup;
    opt.materialize_rowsets = false;
    opt.deadline = Deadline(budget);
    const MiningResult r = MineCharm(train, 1, opt);
    report("CHARM (diffsets)", r.stats.seconds, r.stats.nodes_visited,
           r.stats.groups_emitted, r.stats.timed_out);
  }
  {
    ClosetOptions opt;
    opt.min_support = minsup;
    opt.materialize_rowsets = false;
    opt.deadline = Deadline(budget);
    const MiningResult r = MineCloset(train, 1, opt);
    report("CLOSET+", r.stats.seconds, r.stats.nodes_visited,
           r.stats.groups_emitted, r.stats.timed_out);
  }
  std::printf("\n('+' marks runs stopped at the budget; group counts are then"
              " partial.)\n");
  return 0;
}
