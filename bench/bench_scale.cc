// Out-of-core scale benchmark (DESIGN.md §14): streaming ingest rate,
// tkds conversion, and the sharded mining engine under a memory budget.
//
// Emits bench/BENCH_scale.json records of three kinds:
//   kind=ingest   — streamed item-data parse: rows/s and peak RSS
//   kind=convert  — tkds serialization + mmap open round trip
//   kind=mine     — sharded mining at a given shard count; every record
//                   carries the output digest and a `deterministic` flag
//                   (digest equals the shard_count=1 baseline), which
//                   tools/lint/rss_gate.py gates on, together with
//                   peak_rss_kb <= memory_budget_bytes and the planner's
//                   estimated_peak_bytes <= 3 x peak_rss_kb.
//
// The reduced profile runs by default (CI's scale stage); set
// TOPKRGS_BENCH_SCALE_FULL=1 to add the 100k x 10k headline profile.
// Rows that exceed the point budget are marked timed_out and skipped by
// the gate with a notice, never silently dropped.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

namespace topkrgs {
namespace bench {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/topkrgs_bench_" + name;
}

struct ScaleCase {
  ScaleProfile profile;
  std::vector<uint32_t> shard_counts;
};

void RunCase(const ScaleCase& c, JsonWriter* out) {
  const ScaleProfile& p = c.profile;
  const uint32_t minsup = p.SuggestedMinSupport();
  const std::string items_path = TempPath(p.name + ".items");

  std::printf("=== %s: %" PRIu64 " rows x %u items (minsup %u)\n",
              p.name.c_str(), p.rows, p.num_items, minsup);

  // --- streaming generation + ingest ---------------------------------
  {
    Stopwatch timer;
    const Status written = WriteScaleItemData(p, items_path);
    TOPKRGS_CHECK(written.ok(), written.message().c_str());
    const double write_s = timer.ElapsedSeconds();
    std::printf("  generate: %.2fs (%.0f rows/s)\n", write_s,
                static_cast<double>(p.rows) / write_s);
  }

  ResetPeakRss();
  StreamedTable table;
  {
    Stopwatch timer;
    auto table_or = StreamReader::ReadItemData(items_path);
    TOPKRGS_CHECK(table_or.ok(), table_or.status().ToString().c_str());
    table = std::move(table_or).value();
    const double ingest_s = timer.ElapsedSeconds();
    const long peak_kb = PeakRssKb();
    std::printf("  ingest:   %.2fs (%.0f rows/s), nnz %" PRIu64
                ", peak RSS %ld KiB\n",
                ingest_s, static_cast<double>(p.rows) / ingest_s, table.nnz(),
                peak_kb);
    JsonRecord rec;
    rec.Str("kind", "ingest")
        .Str("profile", p.name)
        .Int("rows", static_cast<long long>(p.rows))
        .Int("items", p.num_items)
        .Int("nnz", static_cast<long long>(table.nnz()))
        .Num("seconds", ingest_s)
        .Num("rows_per_s", static_cast<double>(p.rows) / ingest_s)
        .Int("peak_rss_kb", peak_kb);
    out->Add(rec);
  }

  // --- tkds conversion round trip ------------------------------------
  const std::string tkds_path = TempPath(p.name + ".tkds");
  {
    Stopwatch timer;
    const Status written = WriteTkds(table, tkds_path);
    TOPKRGS_CHECK(written.ok(), written.message().c_str());
    auto mapped_or = MmapDataset::Open(tkds_path);
    TOPKRGS_CHECK(mapped_or.ok(), mapped_or.status().ToString().c_str());
    const double convert_s = timer.ElapsedSeconds();
    std::printf("  convert:  %.2fs, %zu mapped bytes\n", convert_s,
                mapped_or.value().mapped_bytes());
    JsonRecord rec;
    rec.Str("kind", "convert")
        .Str("profile", p.name)
        .Int("rows", static_cast<long long>(p.rows))
        .Int("items", p.num_items)
        .Num("seconds", convert_s)
        .Int("mapped_bytes",
             static_cast<long long>(mapped_or.value().mapped_bytes()));
    out->Add(rec);
  }

  // --- sharded mining sweep ------------------------------------------
  // Budget: twice the planner's working-set floor — far below the
  // row-major double matrix the streaming path never materializes.
  const TransposedView view = table.View();
  uint64_t budget = 0;
  {
    ShardPlanOptions probe;
    probe.k = 3;
    probe.min_support = minsup;
    auto plan_or = PlanShards(view, 1, probe);
    TOPKRGS_CHECK(plan_or.ok(), plan_or.status().ToString().c_str());
    budget = 2 * plan_or.value().estimated_peak_bytes;
  }
  const uint64_t materialized_bytes = p.rows * p.num_items * sizeof(double);
  const double point_budget = PointBudgetSeconds(120.0);

  uint64_t baseline_digest = 0;
  bool have_baseline = false;
  for (const uint32_t shards : c.shard_counts) {
    ShardPlanOptions plan_opt;
    plan_opt.k = 3;
    plan_opt.min_support = minsup;
    plan_opt.shard_count = shards;
    plan_opt.memory_budget_bytes = budget;
    ShardMineOptions mine_opt;
    mine_opt.deadline = Deadline(point_budget);

    ResetPeakRss();
    ShardPlan plan;
    Stopwatch timer;
    auto merged_or = MineShardedTopkRGS(view, 1, plan_opt, mine_opt, &plan);
    TOPKRGS_CHECK(merged_or.ok(), merged_or.status().ToString().c_str());
    const MergedTopk& merged = merged_or.value();
    const double mine_s = timer.ElapsedSeconds();
    const long peak_kb = PeakRssKb();
    const uint64_t digest =
        TopkDigest(merged.per_row, merged.effective_min_support);
    if (!have_baseline && !merged.stats.timed_out) {
      baseline_digest = digest;
      have_baseline = true;
    }
    const bool deterministic =
        have_baseline && !merged.stats.timed_out && digest == baseline_digest;
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest);
    std::printf("  mine x%-3u: %.2fs, %zu shard(s), eff minsup %u, peak RSS "
                "%ld KiB / budget %" PRIu64 " KiB, digest %s%s\n",
                shards, mine_s, plan.shards.size(),
                merged.effective_min_support, peak_kb, budget / 1024,
                digest_hex, merged.stats.timed_out ? " (TIMED OUT)" : "");

    JsonRecord rec;
    rec.Str("kind", "mine")
        .Str("profile", p.name)
        .Int("rows", static_cast<long long>(p.rows))
        .Int("items", p.num_items)
        .Int("shard_count", shards)
        .Int("shards_planned", static_cast<long long>(plan.shards.size()))
        .Int("k", 3)
        .Int("min_support", minsup)
        .Int("effective_min_support", merged.effective_min_support)
        .Num("seconds", mine_s)
        .Int("peak_rss_kb", peak_kb)
        .Int("memory_budget_bytes", static_cast<long long>(budget))
        .Int("estimated_peak_bytes",
             static_cast<long long>(plan.estimated_peak_bytes))
        .Int("materialized_bytes", static_cast<long long>(materialized_bytes))
        .Str("digest", digest_hex)
        .Bool("deterministic", deterministic)
        .Stats(merged.stats);
    out->Add(rec);
  }

  std::remove(items_path.c_str());
  std::remove(tkds_path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace topkrgs

int main(int argc, char** argv) {
  using namespace topkrgs;
  using namespace topkrgs::bench;

  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
  }

  std::vector<ScaleCase> cases;
  cases.push_back({ScaleProfile::Reduced(), {1, 2, 4, 8}});
  if (std::getenv("TOPKRGS_BENCH_SCALE_FULL") != nullptr) {
    cases.push_back({ScaleProfile::Full(), {1, 2, 4, 8}});
  } else {
    std::printf("(set TOPKRGS_BENCH_SCALE_FULL=1 to add the 100k x 10k "
                "profile)\n");
  }

  JsonWriter writer;
  for (const ScaleCase& c : cases) RunCase(c, &writer);

  if (!writer.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", writer.size(), out_path.c_str());
  return 0;
}
