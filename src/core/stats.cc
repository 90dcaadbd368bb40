#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/status.h"

namespace topkrgs {

double Entropy(const std::vector<uint32_t>& counts) {
  uint64_t total = 0;
  for (uint32_t c : counts) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (uint32_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

double PartitionEntropy(const std::vector<std::vector<uint32_t>>& partitions) {
  uint64_t total = 0;
  for (const auto& part : partitions) {
    for (uint32_t c : part) total += c;
  }
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& part : partitions) {
    uint64_t part_total = 0;
    for (uint32_t c : part) part_total += c;
    if (part_total == 0) continue;
    h += (static_cast<double>(part_total) / static_cast<double>(total)) *
         Entropy(part);
  }
  return h;
}

bool BestBoundarySplit(const double* values, const uint8_t* labels, size_t n,
                       const std::vector<uint32_t>& total,
                       BoundarySplit* split) {
  split->sides.resize(2);
  std::vector<uint32_t>& left = split->sides[0];
  std::vector<uint32_t>& right = split->sides[1];
  left.assign(total.size(), 0);
  right.assign(total.begin(), total.end());
  bool found = false;
  for (size_t i = 0; i + 1 < n; ++i) {
    ++left[labels[i]];
    --right[labels[i]];
    if (values[i] == values[i + 1]) continue;
    const double cond = PartitionEntropy(split->sides);
    if (!found || cond < split->entropy) {
      split->entropy = cond;
      split->last_left = i;
      found = true;
    }
  }
  if (!found) return false;
  // Rebuild the two histograms of the best cut once.
  left.assign(total.size(), 0);
  for (size_t i = 0; i <= split->last_left; ++i) ++left[labels[i]];
  for (size_t c = 0; c < total.size(); ++c) right[c] = total[c] - left[c];
  return true;
}

double InformationGain(const std::vector<uint32_t>& total,
                       const std::vector<std::vector<uint32_t>>& partitions) {
  return Entropy(total) - PartitionEntropy(partitions);
}

double ChiSquare(const std::vector<std::vector<uint32_t>>& table) {
  if (table.empty()) return 0.0;
  const size_t cols = table[0].size();
  std::vector<uint64_t> row_totals(table.size(), 0);
  std::vector<uint64_t> col_totals(cols, 0);
  uint64_t grand = 0;
  for (size_t r = 0; r < table.size(); ++r) {
    TOPKRGS_CHECK(table[r].size() == cols, "ragged contingency table");
    for (size_t c = 0; c < cols; ++c) {
      row_totals[r] += table[r][c];
      col_totals[c] += table[r][c];
      grand += table[r][c];
    }
  }
  if (grand == 0) return 0.0;
  double chi = 0.0;
  for (size_t r = 0; r < table.size(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double expected = static_cast<double>(row_totals[r]) *
                              static_cast<double>(col_totals[c]) /
                              static_cast<double>(grand);
      if (expected <= 0.0) continue;
      const double diff = static_cast<double>(table[r][c]) - expected;
      chi += diff * diff / expected;
    }
  }
  return chi;
}

namespace {

/// Sorts (value, label) pairs and evaluates every boundary threshold,
/// returning class histograms of the best binary split by info gain.
/// Returns false when no split exists (constant feature).
bool BestBinarySplit(const std::vector<double>& values,
                     const std::vector<uint8_t>& labels, uint32_t num_classes,
                     std::vector<uint32_t>* best_left,
                     std::vector<uint32_t>* best_right) {
  TOPKRGS_CHECK(values.size() == labels.size(), "values/labels size mismatch");
  const size_t n = values.size();
  if (n < 2) return false;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<double> sorted_values(n);
  std::vector<uint8_t> sorted_labels(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_values[i] = values[order[i]];
    sorted_labels[i] = labels[order[i]];
  }

  std::vector<uint32_t> total(num_classes, 0);
  for (uint8_t l : labels) ++total[l];
  BoundarySplit split;
  if (!BestBoundarySplit(sorted_values.data(), sorted_labels.data(), n, total,
                         &split)) {
    return false;
  }
  *best_left = std::move(split.sides[0]);
  *best_right = std::move(split.sides[1]);
  return true;
}

}  // namespace

double BestSplitInfoGain(const std::vector<double>& values,
                         const std::vector<uint8_t>& labels,
                         uint32_t num_classes) {
  std::vector<uint32_t> left, right;
  if (!BestBinarySplit(values, labels, num_classes, &left, &right)) return 0.0;
  std::vector<uint32_t> total(num_classes, 0);
  for (uint8_t l : labels) ++total[l];
  return InformationGain(total, {left, right});
}

double BestSplitChiSquare(const std::vector<double>& values,
                          const std::vector<uint8_t>& labels,
                          uint32_t num_classes) {
  std::vector<uint32_t> left, right;
  if (!BestBinarySplit(values, labels, num_classes, &left, &right)) return 0.0;
  return ChiSquare({left, right});
}

}  // namespace topkrgs
