#ifndef TOPKRGS_BENCH_BENCH_COMMON_H_
#define TOPKRGS_BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "topkrgs/topkrgs.h"

namespace topkrgs {
namespace bench {

/// One fully prepared dataset: generated, discretized, all views derived.
struct BenchDataset {
  DatasetProfile profile;
  GeneratedData data;
  Pipeline pipeline;
};

inline BenchDataset Load(const DatasetProfile& profile) {
  BenchDataset d;
  d.profile = profile;
  d.data = GenerateMicroarray(profile);
  d.pipeline = PreparePipeline(d.data.train, d.data.test);
  return d;
}

/// Per-measurement wall-clock budget in seconds; override with the
/// TOPKRGS_BENCH_BUDGET_S environment variable. Algorithms exceeding it are
/// reported as DNF, mirroring the paper's treatment of FARMER / CHARM /
/// CLOSET+ runs that "cannot finish in several hours".
inline double PointBudgetSeconds(double fallback = 10.0) {
  const char* env = std::getenv("TOPKRGS_BENCH_BUDGET_S");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Absolute minsup values derived from the class-1 training count for the
/// paper's relative range (95% down to 70%).
inline std::vector<uint32_t> MinsupSweep(uint32_t class_rows) {
  std::vector<uint32_t> out;
  for (double frac : {0.95, 0.90, 0.85, 0.80, 0.75, 0.70}) {
    const uint32_t v = MinSupportFromFrac(frac, class_rows);
    if (out.empty() || out.back() != v) out.push_back(v);
  }
  return out;
}

/// One measured point: seconds, or DNF (exceeded budget), or skipped
/// (a higher-minsup point already DNFed; runtime grows as minsup drops).
struct Cell {
  double seconds = 0.0;
  bool dnf = false;
  bool skipped = false;
  uint64_t groups = 0;

  std::string ToString() const {
    char buf[48];
    if (skipped) {
      std::snprintf(buf, sizeof(buf), ">budget");
    } else if (dnf) {
      std::snprintf(buf, sizeof(buf), "DNF");
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f", seconds);
    }
    return buf;
  }
};

inline void PrintTableHeader(const std::string& first_col,
                             const std::vector<std::string>& columns) {
  std::printf("%-12s", first_col.c_str());
  for (const auto& col : columns) std::printf(" %14s", col.c_str());
  std::printf("\n");
  std::printf("%-12s", "------------");
  for (size_t i = 0; i < columns.size(); ++i) std::printf(" %14s", "--------------");
  std::printf("\n");
}

inline void PrintTableRow(const std::string& label,
                          const std::vector<std::string>& cells) {
  std::printf("%-12s", label.c_str());
  for (const auto& cell : cells) std::printf(" %14s", cell.c_str());
  std::printf("\n");
}

/// Peak resident set size of this process in KiB. Reads VmHWM from
/// /proc/self/status so that ResetPeakRss() below actually moves it;
/// falls back to process-lifetime getrusage ru_maxrss (same units) when
/// /proc is unavailable.
inline long PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return kb;
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;
}

/// Returns freed heap pages to the kernel (so a later peak reflects live
/// allocations, not allocator caching) and resets the kernel's peak-RSS
/// high-water mark ("5" into /proc/self/clear_refs). Call between sweep
/// cases to isolate their peak_rss_kb; without this every record reports
/// the accumulated lifetime maximum of all cases before it. Returns
/// false when the platform offers no reset (the getrusage fallback);
/// callers should then treat peaks as monotone lifetime values again.
inline bool ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  std::fclose(f);
  return ok;
}

/// Machine-readable perf-regression records: one flat JSON object per
/// measurement, emitted as a JSON array. Kept to scalar fields on purpose —
/// diffing two BENCH_*.json files in CI needs no schema knowledge.
class JsonRecord {
 public:
  JsonRecord& Str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    return Raw(key, "\"" + escaped + "\"");
  }
  JsonRecord& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonRecord& Int(const std::string& key, long long value) {
    return Raw(key, std::to_string(value));
  }
  JsonRecord& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  /// Every MinerStats field the harness regresses on, under one prefix.
  JsonRecord& Stats(const MinerStats& stats) {
    Int("nodes_visited", static_cast<long long>(stats.nodes_visited));
    Int("groups_emitted", static_cast<long long>(stats.groups_emitted));
    Int("pruned_bounds", static_cast<long long>(stats.pruned_bounds));
    Int("pruned_backward", static_cast<long long>(stats.pruned_backward));
    Int("freq_scans", static_cast<long long>(stats.freq_scans));
    Int("postings_scans", static_cast<long long>(stats.postings_scans));
    Int("cut_rows_scanned", static_cast<long long>(stats.cut_rows_scanned));
    Bool("timed_out", stats.timed_out);
    return *this;
  }

  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  JsonRecord& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// Accumulates records and writes them as a pretty-enough JSON array.
class JsonWriter {
 public:
  void Add(const JsonRecord& record) { records_.push_back(record.ToString()); }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

  size_t size() const { return records_.size(); }

 private:
  std::vector<std::string> records_;
};

}  // namespace bench
}  // namespace topkrgs

#endif  // TOPKRGS_BENCH_BENCH_COMMON_H_
