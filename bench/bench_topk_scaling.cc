// Perf-regression harness of MineTopkRGS: wall time, peak RSS and the
// search counters over the paper's dataset profiles at k in {10, 100},
// plus a pruning-toggle ablation at k = 10. Emits a machine-readable JSON
// array (BENCH_topk.json by default, argv[1] to override); the committed
// bench/BENCH_topk.json is the reference record a regression run diffs
// against.
//
// peak_rss_kb is isolated per case: the harness trims the allocator and
// resets the kernel's RSS high-water mark before every run (see
// ResetPeakRss in bench_common.h), so each record reports that case's own
// footprint rather than the sweep's accumulated maximum. rss_isolated
// records whether the reset worked on this platform.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench_common.h"

namespace topkrgs {
namespace bench {
namespace {

/// Order-sensitive digest of a mining result: any change to any per-row
/// list, group content or the derived threshold changes the digest, so two
/// records of one configuration can be checked for the same output from
/// the JSON alone. A timed-out run stops wherever the deadline lands, so
/// its digest may differ from run to run.
uint64_t ResultDigest(const TopkResult& result) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(result.effective_min_support);
  for (const auto& list : result.per_row) {
    mix(list.size());
    for (const auto& g : list) {
      mix(g->antecedent.Hash());
      mix(g->support);
      mix(g->antecedent_support);
      mix(g->row_support.Hash());
    }
  }
  return h;
}

/// Whether ResetPeakRss() succeeded before the most recent run; false
/// means peak_rss_kb degraded to the old monotone lifetime semantics.
bool rss_isolated = false;

struct RunConfig {
  std::string toggle = "baseline";
  uint32_t k = 10;
  bool use_topk_pruning = true;
  bool use_bound_pruning = true;
  bool use_backward_pruning = true;
};

/// The paper's Table 2 operating point: 70% of the consequent class.
uint32_t Minsup(const BenchDataset& d) {
  return MinSupportFromFrac(0.7, d.pipeline.train.ClassCounts()[1]);
}

TopkResult RunOnce(const BenchDataset& d, const RunConfig& cfg,
                   double budget_s) {
  TopkMinerOptions opt;
  opt.k = cfg.k;
  opt.min_support = Minsup(d);
  opt.use_topk_pruning = cfg.use_topk_pruning;
  opt.use_bound_pruning = cfg.use_bound_pruning;
  opt.use_backward_pruning = cfg.use_backward_pruning;
  opt.deadline = Deadline(budget_s);
  // Isolate this case's footprint: return allocator caches to the kernel
  // and reset the peak-RSS high-water mark, so the recorded peak_rss_kb
  // covers this run only (plus the shared dataset, which is live state)
  // instead of the accumulated maximum of every case before it.
  rss_isolated = ResetPeakRss();
  return MineTopkRGS(d.pipeline.train, 1, opt);
}

void Record(JsonWriter& out, const BenchDataset& d, const RunConfig& cfg,
            const TopkResult& result) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, ResultDigest(result));
  JsonRecord rec;
  rec.Str("profile", d.profile.name)
      .Int("rows", d.pipeline.train.num_rows())
      .Int("items", d.pipeline.train.num_items())
      .Str("toggle", cfg.toggle)
      .Int("k", cfg.k)
      .Int("minsup", Minsup(d))
      .Num("seconds", result.stats.seconds)
      .Int("peak_rss_kb", PeakRssKb())
      .Bool("rss_isolated", rss_isolated)
      .Int("distinct_groups",
           static_cast<long long>(result.DistinctGroups().size()))
      .Int("effective_min_support", result.effective_min_support)
      .Str("digest", digest)
      .Stats(result.stats);
  out.Add(rec);
}

}  // namespace
}  // namespace bench
}  // namespace topkrgs

int main(int argc, char** argv) {
  using namespace topkrgs;
  using namespace topkrgs::bench;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_topk.json";
  const double budget_s = PointBudgetSeconds(60.0);
  JsonWriter out;

  for (const DatasetProfile& profile : PaperProfiles()) {
    const BenchDataset d = Load(profile);
    std::printf("== %s: %u rows, %u items ==\n", profile.name.c_str(),
                d.pipeline.train.num_rows(), d.pipeline.train.num_items());

    for (uint32_t k : {10u, 100u}) {
      RunConfig cfg;
      cfg.k = k;
      const TopkResult result = RunOnce(d, cfg, budget_s);
      Record(out, d, cfg, result);
      std::printf("  k=%-3u %7.3fs  nodes %" PRIu64 "%s\n", k,
                  result.stats.seconds, result.stats.nodes_visited,
                  result.stats.timed_out ? "  TIMED OUT" : "");
    }

    // Pruning-toggle ablation (k = 10): how many prunes each toggle fires
    // and what turning it off costs.
    struct Toggle {
      const char* name;
      bool topk, bounds, backward;
    };
    for (const Toggle& t :
         {Toggle{"no_topk_pruning", false, true, true},
          Toggle{"no_bound_pruning", true, false, true},
          Toggle{"no_backward_pruning", true, true, false}}) {
      RunConfig cfg;
      cfg.toggle = t.name;
      cfg.use_topk_pruning = t.topk;
      cfg.use_bound_pruning = t.bounds;
      cfg.use_backward_pruning = t.backward;
      const TopkResult result = RunOnce(d, cfg, budget_s);
      Record(out, d, cfg, result);
      std::printf("  %-20s %7.3fs  bounds %" PRIu64 "  backward %" PRIu64
                  "%s\n",
                  t.name, result.stats.seconds, result.stats.pruned_bounds,
                  result.stats.pruned_backward,
                  result.stats.timed_out ? "  TIMED OUT" : "");
    }
  }

  if (!out.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", out.size(), out_path.c_str());
  return 0;
}
