// Perf-regression harness of the parallel MineTopkRGS: wall time, peak RSS
// and pruning counters over the paper's dataset profiles, thread counts
// {1, 2, 4, 8} and k in {10, 100}, plus a pruning-toggle ablation. Emits a
// machine-readable JSON array (BENCH_topk.json by default, argv[1] to
// override); the committed bench/BENCH_topk.json is the reference record a
// regression run diffs against.
//
// peak_rss_kb is isolated per case: the harness trims the allocator and
// resets the kernel's RSS high-water mark before every run (see
// ResetPeakRss in bench_common.h), so each record reports that case's own
// footprint rather than the sweep's accumulated maximum. rss_isolated
// records whether the reset worked on this platform.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace topkrgs {
namespace bench {
namespace {

/// Order-sensitive digest of a mining result: any change to any per-row
/// list, group content or the derived threshold changes the digest. Runs at
/// different thread counts must agree — the digest makes the determinism
/// contract auditable from the JSON alone.
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
  uint32_t threads = 1;
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
  opt.threads = cfg.threads;
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
            const TopkResult& result, double serial_seconds,
            uint64_t serial_digest, uint64_t serial_nodes) {
  const unsigned cores = std::thread::hardware_concurrency();
  // More workers than cores measures scheduler overhead, not scaling —
  // such rows must be excluded from any wall-clock comparison (the CI
  // speedup checks key off this flag). The redundant-work ratio below is
  // still meaningful there: nodes visited don't depend on preemption.
  const bool oversubscribed = cfg.threads > (cores >= 1 ? cores : 1);
  JsonRecord rec;
  rec.Str("profile", d.profile.name)
      .Int("rows", d.pipeline.train.num_rows())
      .Int("items", d.pipeline.train.num_items())
      .Str("toggle", cfg.toggle)
      .Int("k", cfg.k)
      .Int("minsup", Minsup(d))
      .Int("threads", cfg.threads)
      .Int("hardware_concurrency", cores)
      .Bool("oversubscribed", oversubscribed)
      .Num("seconds", result.stats.seconds)
      .Num("speedup_vs_1t",
           result.stats.seconds > 0 ? serial_seconds / result.stats.seconds
                                    : 0.0)
      // Speculation overhead of the parallel search: total enumeration
      // nodes this run visited over the serial run's count. 1.0 = no
      // redundant work; the CI gate caps it at 1.15 for 8-thread rows.
      // Only comparable between completed runs — a timed-out run stops
      // wherever the deadline lands.
      .Num("redundant_work_ratio",
           serial_nodes > 0 ? static_cast<double>(result.stats.nodes_visited) /
                                  static_cast<double>(serial_nodes)
                            : 0.0)
      .Int("peak_rss_kb", PeakRssKb())
      .Bool("rss_isolated", rss_isolated)
      .Int("distinct_groups",
           static_cast<long long>(result.DistinctGroups().size()))
      .Int("effective_min_support", result.effective_min_support)
      // The determinism contract covers completed searches only: runs with
      // timed_out=true stop wherever the deadline lands, so their digest may
      // legitimately differ from the serial reference.
      .Bool("deterministic", ResultDigest(result) == serial_digest)
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

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", cores);
  if (cores < 2) {
    std::printf(
        "NOTE: single-core machine — threads>1 rows measure overhead, not "
        "scaling; speedup_vs_1t <= 1 is expected here.\n");
  }

  for (const DatasetProfile& profile : PaperProfiles()) {
    const BenchDataset d = Load(profile);
    std::printf("== %s: %u rows, %u items ==\n", profile.name.c_str(),
                d.pipeline.train.num_rows(), d.pipeline.train.num_items());

    // Thread scaling at the paper's operating points.
    for (uint32_t k : {10u, 100u}) {
      double serial_seconds = 0.0;
      uint64_t serial_digest = 0;
      uint64_t serial_nodes = 0;
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        RunConfig cfg;
        cfg.k = k;
        cfg.threads = threads;
        const TopkResult result = RunOnce(d, cfg, budget_s);
        if (threads == 1) {
          serial_seconds = result.stats.seconds;
          serial_digest = ResultDigest(result);
          serial_nodes = result.stats.nodes_visited;
        }
        Record(out, d, cfg, result, serial_seconds, serial_digest,
               serial_nodes);
        std::printf(
            "  k=%-3u threads=%u  %7.3fs  speedup %5.2fx  nodes %" PRIu64
            "  ratio %.3f  stolen %" PRIu64 "%s\n",
            k, threads, result.stats.seconds,
            result.stats.seconds > 0 ? serial_seconds / result.stats.seconds
                                     : 0.0,
            result.stats.nodes_visited,
            serial_nodes > 0 ? static_cast<double>(result.stats.nodes_visited) /
                                   static_cast<double>(serial_nodes)
                             : 0.0,
            result.stats.tasks_stolen,
            ResultDigest(result) == serial_digest ? "" : "  DIGEST MISMATCH");
      }
    }

    // Pruning-toggle ablation (k = 10): how many prunes each toggle fires
    // and what turning it off costs, serially and at 4 threads.
    struct Toggle {
      const char* name;
      bool topk, bounds, backward;
    };
    for (const Toggle& t :
         {Toggle{"no_topk_pruning", false, true, true},
          Toggle{"no_bound_pruning", true, false, true},
          Toggle{"no_backward_pruning", true, true, false}}) {
      double serial_seconds = 0.0;
      uint64_t serial_digest = 0;
      uint64_t serial_nodes = 0;
      for (uint32_t threads : {1u, 4u}) {
        RunConfig cfg;
        cfg.toggle = t.name;
        cfg.k = 10;
        cfg.threads = threads;
        cfg.use_topk_pruning = t.topk;
        cfg.use_bound_pruning = t.bounds;
        cfg.use_backward_pruning = t.backward;
        const TopkResult result = RunOnce(d, cfg, budget_s);
        if (threads == 1) {
          serial_seconds = result.stats.seconds;
          serial_digest = ResultDigest(result);
          serial_nodes = result.stats.nodes_visited;
        }
        Record(out, d, cfg, result, serial_seconds, serial_digest,
               serial_nodes);
        std::printf("  %-20s threads=%u  %7.3fs  bounds %" PRIu64
                    "  backward %" PRIu64 "\n",
                    t.name, threads, result.stats.seconds,
                    result.stats.pruned_bounds, result.stats.pruned_backward);
      }
    }
  }

  if (!out.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", out.size(), out_path.c_str());
  return 0;
}
