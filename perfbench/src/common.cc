#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "core/stats.h"
#include "util/random.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t MixSeed(uint64_t run_seed, uint64_t salt) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = run_seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

topkrgs::ContinuousDataset Permute(const topkrgs::ContinuousDataset& in,
                                   const std::vector<topkrgs::GeneId>& genes,
                                   topkrgs::Rng* rng) {
  std::vector<topkrgs::RowId> rows(in.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  Shuffle(&rows, rng);
  topkrgs::ContinuousDataset out(in.num_genes());
  out.set_class_names(in.class_names());
  std::vector<double> values(in.num_genes());
  for (topkrgs::RowId r : rows) {
    for (size_t g = 0; g < genes.size(); ++g) values[g] = in.value(r, genes[g]);
    out.AddRow(values, in.label(r));
  }
  return out;
}

}  // namespace

topkrgs::GeneratedData PermutedProfileData(
    const topkrgs::DatasetProfile& profile, uint64_t run_seed) {
  const topkrgs::GeneratedData base = topkrgs::GenerateMicroarray(profile);
  topkrgs::Rng rng(MixSeed(run_seed, profile.seed));
  std::vector<topkrgs::GeneId> genes(base.train.num_genes());
  std::iota(genes.begin(), genes.end(), 0);
  Shuffle(&genes, &rng);
  topkrgs::GeneratedData out;
  out.train = Permute(base.train, genes, &rng);
  out.test = Permute(base.test, genes, &rng);
  return out;
}

std::vector<double> ItemScores(const topkrgs::ContinuousDataset& train,
                               const topkrgs::Discretization& disc) {
  std::vector<uint8_t> labels(train.num_rows());
  for (topkrgs::RowId r = 0; r < train.num_rows(); ++r) {
    labels[r] = train.label(r);
  }
  std::vector<double> gene_score(train.num_genes(), 0.0);
  for (topkrgs::GeneId g : disc.selected_genes()) {
    gene_score[g] = topkrgs::BestSplitInfoGain(train.GeneColumn(g), labels,
                                               train.num_classes());
  }
  std::vector<double> scores(disc.num_items());
  for (topkrgs::ItemId item = 0; item < disc.num_items(); ++item) {
    scores[item] = gene_score[disc.item(item).gene];
  }
  return scores;
}

double MeanTop1Confidence(
    const std::vector<std::vector<topkrgs::RuleGroupPtr>>& per_row) {
  double sum = 0;
  uint32_t rows = 0;
  for (const auto& list : per_row) {
    if (list.empty()) continue;
    sum += list.front()->confidence();
    ++rows;
  }
  return rows == 0 ? 0 : sum / rows;
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start = Now();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = Now();
  // Spans close in LIFO order (ScopedSpan), so the top is `index`.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, s.start);
      const double hi = std::min(hi_raw, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::vector<double> Tracer::PerOp(const std::string& name) const {
  std::map<uint32_t, double> per_op;
  for (const Span& s : spans_) {
    if (name == s.name) per_op[s.op] += s.end - s.start;
  }
  std::vector<double> out;
  for (const auto& [op, seconds] : per_op) out.push_back(seconds);
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  const std::vector<double> self_s = SelfSeconds();
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = out[spans_[i].name];
    ++sum.count;
    sum.total_s += spans_[i].end - spans_[i].start;
    sum.self_s += self_s[i];
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"op\": %u}}%s\n",
                 s.name, (s.start - origin) * 1e6, (s.end - s.start) * 1e6, i,
                 s.parent, s.op, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// A "Key:   <n> kB" field of /proc/self/status, in MiB; -1 if absent.
double StatusFieldMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  char format[64];
  std::snprintf(format, sizeof(format), "%s: %%ld kB", key);
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, format, &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? -1 : static_cast<double>(kb) / 1024.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }

bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !wrote) return false;
  // The kernel resets VmHWM to the current RSS; allow 1 MiB of growth
  // between the two reads.
  const double peak = PeakRssMb();
  return peak >= 0 && peak <= StatusFieldMb("VmRSS") + 1.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

void Report::Print() const {
  std::printf("attempted %llu, failed %llu, failed_frac %.6f, correct %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              correct_ && failed_ == 0 ? "true" : "false");
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ && failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void AddRunMetrics(const Args& args, const std::vector<double>& setup_s,
                   double reference_s, const TimedRuns& runs, Report* report) {
  // Load from other tenants of a shared host only adds time, in streaks of
  // seconds; the fastest quarter of the operations tracks the program's own
  // cost, where the median moves with the streaks.
  const double run_s = Quantile(runs.untraced_s, kRunQuantile);
  std::printf("untraced operations (s):");
  for (double t : runs.untraced_s) std::printf(" %.4f", t);
  std::printf("\n");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("run_s", run_s, "s");
  report->Add("peak_rss_mb", Median(runs.peak_mb), "MB");
  report->Add("throughput_per_s", 1.0 / run_s, "1/s");
  report->Add("run_count", static_cast<double>(runs.untraced_s.size()),
              "count");
  report->Add("run_p50_s", Median(runs.untraced_s), "s");
  report->Add("run_max_s", Quantile(runs.untraced_s, 1.0), "s");
  report->Add("reference_s", reference_s, "s");
  report->Add("rss.reset_ok", runs.rss_reset_ok ? 1 : 0, "bool");
  if (args.trace) {
    report->Add("trace.overhead_s",
                Quantile(runs.traced_s, kRunQuantile) - run_s, "s");
  }
}

void ReportTrace(const Tracer& tracer, const Args& args) {
  std::printf(
      "span                          count      total_s       self_s\n");
  for (const auto& [name, sum] : tracer.Summarize()) {
    std::printf("  %-26s %7llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(sum.count), sum.total_s,
                sum.self_s);
  }
  const std::string path = args.work_dir + "/trace_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  if (tracer.WriteChromeTrace(path)) {
    std::printf("trace written to %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  }
}

}  // namespace perfbench
