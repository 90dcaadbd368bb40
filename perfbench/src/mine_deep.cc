// mine_deep: MineTopkRGS alone on the discretized OC profile at k=100,
// minsup 0.7 of the consequent class (class 1), 4 threads, the default
// backend. Pure search: many nodes and long per-row lists, no FindLB, no
// ingest. Each operation's TopkDigest must equal a 1-thread run made at
// set-up.
#include <string>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"

namespace perfbench {

using namespace topkrgs;

namespace {

constexpr uint32_t kK = 100;
constexpr double kMinsupFrac = 0.7;
constexpr ClassLabel kConsequent = 1;
constexpr uint32_t kThreads = 4;
constexpr int kSetups = 3;
constexpr int kMinOps = 3;

uint64_t Digest(const TopkResult& result) {
  return TopkDigest(result.per_row, result.effective_min_support);
}

}  // namespace

int RunMineDeep(const Args& args, Report* report) {
  const DatasetProfile profile = DatasetProfile::OC();

  std::vector<double> setup_s;
  DiscreteDataset data;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = Now();
    const GeneratedData generated = PermutedProfileData(profile, args.seed);
    data = EntropyDiscretizer().Fit(generated.train).Apply(generated.train);
    setup_s.push_back(Now() - t0);
  }

  TopkMinerOptions options;
  options.k = kK;
  options.min_support =
      MinSupportFromFrac(kMinsupFrac, data.ClassCounts()[kConsequent]);
  options.threads = 1;
  const double ref_t0 = Now();
  const TopkResult reference = MineTopkRGS(data, kConsequent, options);
  const double reference_s = Now() - ref_t0;
  const uint64_t reference_digest = Digest(reference);
  options.threads = kThreads;

  Tracer tracer;
  TopkResult last;
  const TimedRuns runs = RunTimed(
      args, tracer, report, kMinOps,
      [&](bool) {
        ScopedSpan span(tracer, "mine.search");
        last = MineTopkRGS(data, kConsequent, options);
        return Digest(last) == reference_digest;
      },
      [](bool) {});
  const MinerStats& stats = last.stats;
  const size_t distinct = last.DistinctGroups().size();

  AddRunMetrics(args, setup_s, reference_s, runs, report);
  report->Add("quality", MeanTop1Confidence(reference.per_row), "frac");

  if (args.trace) {
    report->Add("mine.search_s", Median(tracer.PerOp("mine.search")), "s");
    report->Add("mine.nodes_visited", stats.nodes_visited, "count");
    report->Add("mine.pruned_bounds", stats.pruned_bounds, "count");
    report->Add("mine.pruned_backward", stats.pruned_backward, "count");
    report->Add("mine.groups_emitted", stats.groups_emitted, "count");
    report->Add("mine.tasks_spawned", stats.tasks_spawned, "count");
    report->Add("mine.tasks_stolen", stats.tasks_stolen, "count");
    report->Add("mine.emit_yield",
                static_cast<double>(distinct) /
                    static_cast<double>(stats.groups_emitted),
                "ratio");
    report->Add("mine.redundant_work_ratio",
                static_cast<double>(stats.nodes_visited) /
                    static_cast<double>(reference.stats.nodes_visited),
                "ratio");
    ReportTrace(tracer, args);
  }
  return 0;
}

}  // namespace perfbench
