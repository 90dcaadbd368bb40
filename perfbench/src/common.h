// Shared plumbing of the end-to-end benchmark driver: run arguments, the
// in-memory span tracer, order statistics, peak-RSS isolation and the
// metric report every workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "discretize/entropy_discretizer.h"
#include "mine/topk_miner.h"
#include "synth/generator.h"
#include "util/random.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Timed-phase budget: a workload repeats its operation until this much
  /// wall time has gone by (and at least a minimum number of times).
  double seconds = 10;
  bool trace = false;
  /// Working directory for generated input files and the trace output.
  std::string work_dir = ".bench_work";
};

/// Monotonic wall clock in seconds.
double Now();

/// Mixes the run seed with a per-workload salt into a generator seed, so
/// neighbouring run seeds give unrelated datasets.
uint64_t MixSeed(uint64_t run_seed, uint64_t salt);

/// Fisher-Yates shuffle of `values` in place.
template <typename T>
void Shuffle(std::vector<T>* values, topkrgs::Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->NextBounded(i)]);
  }
}

/// The profile's dataset, generated from the profile's own seed, with its
/// genes (the same order in both splits) and the rows of each split
/// shuffled by `run_seed`. Regenerating from the run seed instead would
/// change how hard the data is to mine by up to 30x between seeds (OC at
/// k=100 took 2 s to 60 s on six seeds); a permuted dataset keeps the
/// profile's difficulty while every seed still gives different inputs.
topkrgs::GeneratedData PermutedProfileData(
    const topkrgs::DatasetProfile& profile, uint64_t run_seed);

/// Entropy score of each item = best-split info gain of its gene on the
/// training split: the ranking FindLB uses in the CLI's pipeline.
std::vector<double> ItemScores(const topkrgs::ContinuousDataset& train,
                               const topkrgs::Discretization& disc);

/// Output quality of a top-k result: the mean confidence of each row's
/// top-1 covering rule group, over rows that have one.
double MeanTop1Confidence(
    const std::vector<std::vector<topkrgs::RuleGroupPtr>>& per_row);

/// Spans recorded by the benchmark's own code around calls into the
/// library's public functions. Single-threaded by contract: every span is
/// opened and closed on the thread that drives the workload, so nesting is
/// a plain stack. Spans stay in memory until WriteChromeTrace at the end.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    double start = 0;
    double end = 0;
    int32_t parent = -1;
    /// Iteration or request id the span belongs to.
    uint32_t op = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(uint32_t op) { op_ = op; }

  /// Opens a span; returns its index, or -1 while disabled.
  int32_t Begin(const char* name);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part of it that its child spans cover.
  std::vector<double> SelfSeconds() const;

  /// Total duration of the spans named `name`, per op, in op order; ops
  /// without such a span are skipped.
  std::vector<double> PerOp(const std::string& name) const;

  /// Per span name: count, total seconds and self seconds.
  struct Summary {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Summary> Summarize() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set size (VmHWM), in MiB.
double PeakRssMb();

/// Returns freed heap to the kernel and resets the kernel's peak-RSS mark
/// ("5" into /proc/self/clear_refs). True only when the reset took effect:
/// afterwards the peak sits at the current RSS again.
bool ResetPeakRss();

/// What one workload run measured. Metric names and units follow
/// BENCHMARK.json; run.py picks the end-to-end or per-layer set from it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; a failed one also counts as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A check outside the counted operations (a set-up invariant) failed.
  void Fail(const std::string& why);

  /// Human-readable lines, then one JSON line with every metric.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// The timed phase of a batch workload.
struct TimedRuns {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  /// Peak RSS of each operation, in MiB.
  std::vector<double> peak_mb;
  bool rss_reset_ok = true;
};

/// Repeats one operation until `args.seconds` have passed and at least
/// `min_ops` untraced operations (and, in a traced run, two traced ones)
/// are in. A traced run traces every other operation. `op(traced)` runs
/// and checks one operation and returns whether its output passed;
/// `after(traced)` runs untimed right after it (the traced repeat of
/// opaque calls). Peak RSS is reset before each operation and read after.
template <typename Op, typename After>
TimedRuns RunTimed(const Args& args, Tracer& tracer, Report* report,
                   size_t min_ops, Op&& op, After&& after) {
  TimedRuns runs;
  const double start = Now();
  for (uint32_t i = 0;; ++i) {
    if (Now() - start >= args.seconds && runs.untraced_s.size() >= min_ops &&
        (!args.trace || runs.traced_s.size() >= 2)) {
      break;
    }
    const bool traced = args.trace && i % 2 == 1;
    runs.rss_reset_ok = ResetPeakRss() && runs.rss_reset_ok;
    tracer.set_op(i);
    tracer.set_enabled(traced);
    const double t0 = Now();
    const bool ok = op(traced);
    (traced ? runs.traced_s : runs.untraced_s).push_back(Now() - t0);
    runs.peak_mb.push_back(PeakRssMb());
    after(traced);
    tracer.set_enabled(false);
    report->Attempt(ok);
  }
  return runs;
}

/// Quantile of the per-operation wall times that a batch workload reports
/// as run_s: the lower quartile.
inline constexpr double kRunQuantile = 0.25;

/// The end-to-end metrics every batch workload reports from its set-up
/// times and timed phase (plus trace.overhead_s in a traced run).
void AddRunMetrics(const Args& args, const std::vector<double>& setup_s,
                   double reference_s, const TimedRuns& runs, Report* report);

/// Adds the tracer's per-span summary (count, total and self seconds) to
/// the human-readable output and writes the Chrome trace next to it.
void ReportTrace(const Tracer& tracer, const Args& args);

int RunTrainRcbt(const Args& args, Report* report);
int RunMineDeep(const Args& args, Report* report);
int RunMineSharded(const Args& args, Report* report);
int RunServeHttp(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
