// mine_sharded: the out-of-core engine on a ScaleProfile shaped like Full
// (10k items) cut to 40k rows. Set-up writes the item-data file, with rows
// and item ids permuted by the run seed; each operation is
// StreamReader::ReadItemData followed by MineShardedTopkRGS at 4 shards x 4
// threads, k=3. Few search nodes over many rows, so the per-node cut scan,
// the per-shard dense suffix datasets and the merge dominate. The digest
// must equal a 1-shard run made at set-up.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"

namespace perfbench {

using namespace topkrgs;

namespace {

constexpr uint64_t kRows = 40000;
constexpr uint32_t kK = 3;
constexpr ClassLabel kConsequent = 1;
constexpr uint32_t kShards = 4;
constexpr uint32_t kThreads = 4;
constexpr int kSetups = 15;
constexpr int kMinOps = 3;

struct Mined {
  uint64_t digest = 0;
  /// Mean confidence of each row's top-1 covering group.
  double top1_confidence = 0;
  MinerStats stats;
  ShardPlan plan;
};

StatusOr<Mined> MineOnce(const TransposedView& view, uint32_t shards,
                         uint32_t min_support, Tracer& tracer) {
  ShardPlanOptions plan_options;
  plan_options.k = kK;
  plan_options.min_support = min_support;
  plan_options.shard_count = shards;
  ShardMineOptions mine_options;
  mine_options.threads = kThreads;
  Mined out;
  ScopedSpan span(tracer, "scale.mine_sharded");
  auto merged = MineShardedTopkRGS(view, kConsequent, plan_options,
                                   mine_options, &out.plan);
  if (!merged.ok()) return merged.status();
  out.digest = TopkDigest(merged.value().per_row,
                          merged.value().effective_min_support);
  out.stats = merged.value().stats;
  out.top1_confidence = MeanTop1Confidence(merged.value().per_row);
  return out;
}

/// MineShardedTopkRGS is opaque from outside, so the traced run calls its
/// public sub-calls again: PlanShards, then per shard BuildSuffixDataset
/// (on its own; MineShard builds it again inside) and MineShard, then
/// MergeShardResults. Returns the digest of the re-assembled result.
StatusOr<uint64_t> RepeatShardedSubCalls(const TransposedView& view,
                                  uint32_t min_support, Tracer& tracer) {
  ScopedSpan root(tracer, "scale.sub_calls");
  ShardPlanOptions plan_options;
  plan_options.k = kK;
  plan_options.min_support = min_support;
  plan_options.shard_count = kShards;
  ShardMineOptions mine_options;
  mine_options.threads = kThreads;
  const auto plan = [&] {
    ScopedSpan span(tracer, "scale.plan");
    return PlanShards(view, kConsequent, plan_options);
  }();
  if (!plan.ok()) return plan.status();
  std::vector<ShardResult> results;
  for (uint32_t p = 0; p < plan.value().shards.size(); ++p) {
    {
      ScopedSpan span(tracer, "scale.suffix_build");
      const DiscreteDataset suffix = BuildSuffixDataset(view, plan.value(), p);
      (void)suffix.num_rows();
    }
    ScopedSpan span(tracer, "scale.shard_mine");
    results.push_back(MineShard(view, plan.value(), p, mine_options));
  }
  ScopedSpan span(tracer, "scale.merge");
  const MergedTopk merged = MergeShardResults(view, plan.value(), results);
  return TopkDigest(merged.per_row, merged.effective_min_support);
}

/// Writes the profile's rows, generated from the profile's own seed, to
/// `path` in item-data format, with the row order and the item ids shuffled
/// by `run_seed`. Regenerating from the run seed instead moved the mining
/// time by up to 1.6x between seeds; a permuted file keeps the profile's
/// work while every seed still gives different bytes.
Status WritePermutedScaleItemData(const ScaleProfile& profile,
                                  uint64_t run_seed, const std::string& path) {
  Rng rng(MixSeed(run_seed, profile.seed));
  std::vector<ItemId> item_map(profile.num_items);
  std::iota(item_map.begin(), item_map.end(), 0);
  Shuffle(&item_map, &rng);
  std::vector<uint64_t> rows(profile.rows);
  std::iota(rows.begin(), rows.end(), 0);
  Shuffle(&rows, &rng);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  bool wrote = true;
  std::string line;
  std::string out;
  std::vector<ItemId> items;
  for (uint64_t row : rows) {
    // A row reads "label<TAB>sorted item ids<LF>".
    line.clear();
    AppendScaleRow(profile, row, &line);
    const size_t tab = line.find('\t');
    items.clear();
    const char* p = line.c_str() + tab + 1;
    for (;;) {
      char* end = nullptr;
      const unsigned long id = std::strtoul(p, &end, 10);
      if (end == p) break;
      items.push_back(item_map[id]);
      p = end;
    }
    std::sort(items.begin(), items.end());
    out.append(line, 0, tab + 1);
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(items[i]);
    }
    out += '\n';
    if (out.size() >= (1u << 20)) {
      wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size() && wrote;
      out.clear();
    }
  }
  wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size() && wrote;
  if (std::fclose(f) != 0 || !wrote) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

}  // namespace

int RunMineSharded(const Args& args, Report* report) {
  ScaleProfile profile = ScaleProfile::Full();
  profile.rows = kRows;
  const std::string path = args.work_dir + "/mine_sharded.items";

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = Now();
    const Status written = WritePermutedScaleItemData(profile, args.seed, path);
    setup_s.push_back(Now() - t0);
    if (!written.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
  }

  Tracer tracer;
  // Reference: a 1-shard run. minsup is half the expected per-pattern
  // positive support, as a fraction of the consequent class.
  const double ref_t0 = Now();
  uint32_t min_support = 0;
  Mined reference;
  {
    // Scoped so the table is released before the peak-RSS window opens.
    const auto table = StreamReader::ReadItemData(path);
    if (!table.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    uint32_t positives = 0;
    for (ClassLabel label : table.value().labels()) {
      positives += label == kConsequent ? 1 : 0;
    }
    min_support = MinSupportFromFrac(0.5 / profile.patterns, positives);
    auto mined = MineOnce(table.value().View(), 1, min_support, tracer);
    if (!mined.ok()) {
      std::fprintf(stderr, "reference run: %s\n",
                   mined.status().ToString().c_str());
      return 1;
    }
    reference = std::move(mined).value();
  }
  const double reference_s = Now() - ref_t0;

  // The table of the last operation, kept for the traced sub-calls.
  std::optional<StreamedTable> table;
  Mined last;
  const TimedRuns runs = RunTimed(
      args, tracer, report, kMinOps,
      [&](bool) {
        auto ingested = [&] {
          ScopedSpan span(tracer, "scale.ingest");
          return StreamReader::ReadItemData(path);
        }();
        table.reset();
        if (!ingested.ok()) return false;
        table = std::move(ingested).value();
        auto mined = MineOnce(table->View(), kShards, min_support, tracer);
        if (!mined.ok()) return false;
        last = std::move(mined).value();
        return last.digest == reference.digest;
      },
      [&](bool traced) {
        if (!traced || !table.has_value()) return;
        auto repeated =
            RepeatShardedSubCalls(table->View(), min_support, tracer);
        if (!repeated.ok() || repeated.value() != reference.digest) {
          report->Fail("repeated sharded sub-calls differ from the reference");
        }
      });
  table.reset();

  AddRunMetrics(args, setup_s, reference_s, runs, report);
  report->Add("quality", reference.top1_confidence, "frac");

  if (args.trace) {
    const double ingest_s = Median(tracer.PerOp("scale.ingest"));
    report->Add("scale.ingest_s", ingest_s, "s");
    report->Add("scale.ingest_rows_per_s",
                static_cast<double>(kRows) / ingest_s, "rows/s");
    report->Add("scale.plan_s", Median(tracer.PerOp("scale.plan")), "s");
    report->Add("scale.shard_mine_s", Median(tracer.PerOp("scale.shard_mine")),
                "s");
    report->Add("scale.merge_s", Median(tracer.PerOp("scale.merge")), "s");
    report->Add("scale.suffix_build_s",
                Median(tracer.PerOp("scale.suffix_build")), "s");
    report->Add("scale.nodes_visited", last.stats.nodes_visited, "count");
    report->Add("scale.estimated_peak_mb",
                static_cast<double>(last.plan.estimated_peak_bytes) /
                    (1024.0 * 1024.0),
                "MB");
    ReportTrace(tracer, args);
  }
  return 0;
}

}  // namespace perfbench
