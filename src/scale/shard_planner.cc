#include "scale/shard_planner.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mine/miner_common.h"
#include "util/safe_math.h"

namespace topkrgs {

namespace {

uint64_t BitsetBytes(uint64_t universe) { return ((universe + 63) / 64) * 8; }

/// Peak-memory model for the sharded run (documented in DESIGN.md §14):
/// the CSR table, the index of the `frequent` items every shard mines
/// (per-row bitsets over the frequent columns, per-column row bitsets)
/// and the result lists, whose antecedents span the whole item universe.
///
/// Checked throughout: every factor except `k` is bounded by the view's
/// validated shape (items <= kMaxItemUniverse, nnz <= rows × items), but
/// `k` is raw CLI input, and a wrapped estimate that lands back under the
/// budget would wave through a run planned to blow it. An overflowing
/// model means the plan is unrepresentable — surface that as the error.
StatusOr<uint64_t> EstimatePeakBytes(const TransposedView& view,
                                     uint32_t frequent, uint32_t np,
                                     uint32_t k) {
  const uint64_t rows = view.num_rows;
  const uint64_t items = view.num_items;
  const char* what = "sharded peak-memory estimate";
  const uint64_t csr = view.nnz() * sizeof(uint32_t) +
                       (items + 1) * sizeof(uint64_t) + rows;
  const uint64_t index = rows * BitsetBytes(frequent)     // row bitsets
                         + frequent * BitsetBytes(rows)   // column rowsets
                         + rows * 32;                     // per-row headers
  // Result lists: np rows × k shared handles plus a generous allowance for
  // distinct groups (each an item bitset + a row bitset).
  auto np_k = CheckedMul<uint64_t>(np, k, what);
  if (!np_k.ok()) return np_k.status();
  auto handles = CheckedMul<uint64_t>(np_k.value(), 16, what);
  if (!handles.ok()) return handles.status();
  auto results = CheckedAdd<uint64_t>(
      handles.value(), 4096 * (BitsetBytes(items) + BitsetBytes(rows) + 64),
      what);
  if (!results.ok()) return results.status();
  auto total = CheckedAdd<uint64_t>(csr + index, results.value(), what);
  if (!total.ok()) return total.status();
  return total.value();
}

}  // namespace

StatusOr<ShardPlan> PlanShards(const TransposedView& view,
                               ClassLabel consequent,
                               const ShardPlanOptions& options) {
  if (consequent >= view.num_classes) {
    return Status::InvalidArgument(
        "consequent class " + std::to_string(consequent) +
        " out of range (dataset declares " + std::to_string(view.num_classes) +
        " classes)");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("shard planning: k must be >= 1");
  }

  ShardPlan plan;
  plan.consequent = consequent;
  plan.k = options.k;
  plan.initial_min_support = std::max<uint32_t>(1, options.min_support);

  const uint32_t num_rows = view.num_rows;
  const uint32_t num_items = view.num_items;

  // Global frequent items — FrequentItems(data, consequent, minsup)
  // recomputed from postings: an item is frequent iff its support counted
  // over consequent-class rows reaches the initial minsup.
  plan.frequent = Bitset(num_items);
  for (uint32_t item = 0; item < num_items; ++item) {
    const uint32_t* ids = view.rows_of(item);
    const size_t count = view.rows_count(item);
    uint32_t class_support = 0;
    for (size_t i = 0; i < count; ++i) {
      if (view.labels[ids[i]] == consequent) ++class_support;
    }
    if (class_support >= plan.initial_min_support) plan.frequent.Set(item);
  }
  // NOLINT(cast: Count() <= num_items, a uint32)
  const auto frequent_count = static_cast<uint32_t>(plan.frequent.Count());

  // Global canonical order: the paper's ORD, weighing each row by its
  // frequent items, counted from postings.
  std::vector<uint32_t> weight(num_rows, 0);
  plan.frequent.ForEach([&](size_t bit) {
    // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
    const uint32_t item = static_cast<uint32_t>(bit);
    const uint32_t* ids = view.rows_of(item);
    const size_t count = view.rows_count(item);
    for (size_t i = 0; i < count; ++i) ++weight[ids[i]];
  });
  plan.order = ClassDominantOrder(
      std::span<const ClassLabel>(view.labels, num_rows), consequent, weight);
  plan.positives = 0;
  for (uint32_t r = 0; r < num_rows; ++r) {
    if (view.labels[r] == consequent) ++plan.positives;
  }

  // Earliest root-absorbed position: the first canonical row containing
  // every frequent item. Rows at or before it pin min(R) for EVERY closed
  // group, which is what the ownership truncation below keys on.
  plan.absorbed_min_pos = UINT32_MAX;
  if (frequent_count > 0) {
    for (uint32_t pos = 0; pos < num_rows; ++pos) {
      if (weight[plan.order[pos]] == frequent_count) {
        plan.absorbed_min_pos = pos;
        break;
      }
    }
  }

  auto peak_or =
      EstimatePeakBytes(view, frequent_count, plan.positives, options.k);
  if (!peak_or.ok()) return peak_or.status();
  const uint64_t peak = peak_or.value();
  plan.estimated_peak_bytes = peak;
  if (options.memory_budget_bytes != 0 && peak > options.memory_budget_bytes) {
    return Status::InvalidArgument(
        "memory budget " + std::to_string(options.memory_budget_bytes) +
        " bytes is below the irreducible sharded working set (~" +
        std::to_string(peak) +
        " bytes: CSR table + frequent-item index + result lists); raise "
        "--memory-budget");
  }

  const uint32_t np = plan.positives;
  if (np == 0 || frequent_count == 0) {
    return plan;  // nothing to mine; shards stays empty
  }

  const uint32_t count = std::clamp(options.shard_count, 1u, np);

  // Even split of the positive positions; the first `extra` shards take
  // one more. Shards beginning after the earliest root-absorbed row are
  // never planned (the backward check against that row suppresses
  // everything), and the shard that CONTAINS it owns every group rooted at
  // or past it — its first-level fan-out is unlimited.
  const uint32_t base = np / count;
  const uint32_t extra = np % count;
  uint32_t begin = 0;
  for (uint32_t p = 0; p < count && begin < np; ++p) {
    ShardRange range;
    range.begin_pos = begin;
    range.end_pos = begin + base + (p < extra ? 1 : 0);
    if (plan.absorbed_min_pos < range.begin_pos) break;  // inert from here on
    if (plan.absorbed_min_pos < range.end_pos) {
      // This shard owns every group rooted at or past the earliest
      // absorbed row (that row is in EVERY closed rowset, pinning min(R)
      // inside this range): unlimited fan-out, and every later shard
      // would be suppressed wholesale by the backward check.
      range.end_pos = np;
      range.first_level_end = UINT32_MAX;
      plan.shards.push_back(range);
      break;
    }
    range.first_level_end = range.end_pos;
    plan.shards.push_back(range);
    begin = range.end_pos;
  }
  return plan;
}

}  // namespace topkrgs
