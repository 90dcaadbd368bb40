// train_rcbt: the paper's classification pipeline on the OC profile (210
// training rows x 15,154 genes, 43 test rows) at the paper's settings
// (k=10, nl=20, minsup 0.7 of each class). One operation is
// EntropyDiscretizer::Fit, Discretization::Apply on both splits, the
// entropy item scores, RcbtClassifier::Train and a Predict per test row.
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"

namespace perfbench {
namespace {

using namespace topkrgs;

constexpr uint32_t kK = 10;
constexpr uint32_t kNl = 20;
constexpr double kMinsupFrac = 0.7;
constexpr int kSetups = 11;
constexpr int kMinOps = 3;

struct Outcome {
  std::vector<ClassLabel> labels;
  uint32_t correct = 0;
  uint32_t used_default = 0;
  uint32_t rules = 0;
  uint32_t items = 0;
  DiscreteDataset train;   // kept for the traced sub-calls
  RcbtOptions options;
};

Outcome RunOnce(const GeneratedData& data, Tracer& tracer) {
  Outcome out;
  Discretization disc;
  {
    ScopedSpan span(tracer, "discretize.fit");
    disc = EntropyDiscretizer().Fit(data.train);
  }
  DiscreteDataset test;
  {
    ScopedSpan span(tracer, "discretize.apply");
    out.train = disc.Apply(data.train);
    test = disc.Apply(data.test);
  }
  out.items = disc.num_items();
  out.options.k = kK;
  out.options.nl = kNl;
  out.options.min_support_frac = kMinsupFrac;
  {
    ScopedSpan span(tracer, "rcbt.item_scores");
    out.options.item_scores = ItemScores(data.train, disc);
  }
  RcbtClassifier clf;
  {
    ScopedSpan span(tracer, "rcbt.train");
    clf = RcbtClassifier::Train(out.train, out.options);
  }
  for (uint32_t j = 1; j <= clf.num_classifiers(); ++j) {
    out.rules += static_cast<uint32_t>(clf.classifier_rules(j).size());
  }
  for (RowId r = 0; r < test.num_rows(); ++r) {
    RcbtClassifier::Prediction pred;
    {
      ScopedSpan span(tracer, "rcbt.predict");
      pred = clf.Predict(test.row_bitset(r));
    }
    out.labels.push_back(pred.label);
    out.correct += pred.label == test.label(r) ? 1 : 0;
    out.used_default += pred.used_default ? 1 : 0;
  }
  return out;
}

/// Counters of the repeated sub-calls of RcbtClassifier::Train.
struct SubCalls {
  MinerStats mine;
  uint64_t distinct_groups_kept = 0;
  uint64_t findlb_calls = 0;
  uint64_t findlb_distinct = 0;
  uint64_t findlb_rules = 0;
};

/// RcbtClassifier::Train is opaque from outside, so the traced run calls
/// its public sub-calls again in the same order: MineTopkRGS per class,
/// then GroupsAtRank(j) and FindLowerBounds per group for j = 1..k.
SubCalls RepeatTrainSubCalls(const DiscreteDataset& train,
                             const RcbtOptions& options, Tracer& tracer) {
  ScopedSpan root(tracer, "rcbt.sub_calls");
  SubCalls out;
  const std::vector<uint32_t> counts = train.ClassCounts();
  std::vector<TopkResult> mined(train.num_classes());
  for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
    if (counts[cls] == 0) continue;
    TopkMinerOptions mopt;
    mopt.k = options.k;
    mopt.min_support =
        MinSupportFromFrac(options.min_support_frac, counts[cls]);
    {
      ScopedSpan span(tracer, "mine.search");
      mined[cls] = MineTopkRGS(train, static_cast<ClassLabel>(cls), mopt);
    }
    const MinerStats& s = mined[cls].stats;
    out.mine.nodes_visited += s.nodes_visited;
    out.mine.pruned_bounds += s.pruned_bounds;
    out.mine.pruned_backward += s.pruned_backward;
    out.mine.groups_emitted += s.groups_emitted;
    out.mine.tasks_spawned += s.tasks_spawned;
    out.mine.tasks_stolen += s.tasks_stolen;
    out.distinct_groups_kept += mined[cls].DistinctGroups().size();
  }
  FindLbOptions lopt;
  lopt.num_lower_bounds = options.nl;
  std::set<const RuleGroup*> distinct;
  for (uint32_t j = 1; j <= options.k; ++j) {
    for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
      std::vector<RuleGroupPtr> groups;
      {
        ScopedSpan span(tracer, "mine.groups_at_rank");
        groups = mined[cls].GroupsAtRank(j);
      }
      for (const RuleGroupPtr& group : groups) {
        ScopedSpan span(tracer, "findlb");
        out.findlb_rules +=
            FindLowerBounds(train, *group, options.item_scores, lopt).size();
        ++out.findlb_calls;
        distinct.insert(group.get());
      }
    }
  }
  out.findlb_distinct = distinct.size();
  return out;
}

}  // namespace

int RunTrainRcbt(const Args& args, Report* report) {
  const DatasetProfile profile = DatasetProfile::OC();

  std::vector<double> setup_s;
  GeneratedData data;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = Now();
    data = PermutedProfileData(profile, args.seed);
    setup_s.push_back(Now() - t0);
  }

  Tracer tracer;
  // Reference run (also the warm-up): later runs must reproduce its labels.
  const double ref_t0 = Now();
  const Outcome reference = RunOnce(data, tracer);
  const double reference_s = Now() - ref_t0;
  const double test_rows = static_cast<double>(reference.labels.size());
  const double accuracy = reference.correct / test_rows;

  SubCalls sub_calls;
  Outcome last;
  const TimedRuns runs = RunTimed(
      args, tracer, report, kMinOps,
      [&](bool) {
        last = RunOnce(data, tracer);
        return last.labels == reference.labels &&
               last.correct == reference.correct;
      },
      [&](bool traced) {
        if (traced) {
          sub_calls = RepeatTrainSubCalls(last.train, last.options, tracer);
        }
      });

  AddRunMetrics(args, setup_s, reference_s, runs, report);
  report->Add("quality", accuracy, "frac");
  report->Add("test_accuracy", accuracy, "frac");

  if (args.trace) {
    const double train_s = Median(tracer.PerOp("rcbt.train"));
    const double mine_s = Median(tracer.PerOp("mine.search"));
    const double findlb_s = Median(tracer.PerOp("findlb"));
    report->Add("discretize.fit_s", Median(tracer.PerOp("discretize.fit")),
                "s");
    report->Add("discretize.apply_s", Median(tracer.PerOp("discretize.apply")),
                "s");
    report->Add("discretize.items", reference.items, "count");
    report->Add("mine.search_s", mine_s, "s");
    report->Add("mine.nodes_visited", sub_calls.mine.nodes_visited, "count");
    report->Add("mine.pruned_bounds", sub_calls.mine.pruned_bounds, "count");
    report->Add("mine.pruned_backward", sub_calls.mine.pruned_backward,
                "count");
    report->Add("mine.groups_emitted", sub_calls.mine.groups_emitted, "count");
    report->Add("mine.tasks_spawned", sub_calls.mine.tasks_spawned, "count");
    report->Add("mine.tasks_stolen", sub_calls.mine.tasks_stolen, "count");
    report->Add("mine.emit_yield",
                static_cast<double>(sub_calls.distinct_groups_kept) /
                    static_cast<double>(sub_calls.mine.groups_emitted),
                "ratio");
    report->Add("findlb.s", findlb_s, "s");
    report->Add("findlb.calls", sub_calls.findlb_calls, "count");
    report->Add("findlb.distinct_groups", sub_calls.findlb_distinct, "count");
    report->Add("findlb.useful_ratio",
                static_cast<double>(sub_calls.findlb_distinct) /
                    static_cast<double>(sub_calls.findlb_calls),
                "ratio");
    report->Add("findlb.rules", sub_calls.findlb_rules, "count");
    report->Add("rcbt.train_s", train_s, "s");
    report->Add("rcbt.select_s", train_s - mine_s - findlb_s, "s");
    report->Add("rcbt.rules", reference.rules, "count");
    report->Add("rcbt.default_frac", reference.used_default / test_rows,
                "ratio");
    report->Add("rcbt.predict_us",
                Median(tracer.PerOp("rcbt.predict")) / test_rows * 1e6, "us");
    ReportTrace(tracer, args);
  }
  return 0;
}

}  // namespace perfbench
