#include "mine/miner_common.h"

#include <algorithm>
#include <numeric>

#include "util/status.h"

namespace topkrgs {

std::vector<RowId> ClassDominantOrder(std::span<const ClassLabel> labels,
                                      ClassLabel consequent,
                                      std::span<const uint32_t> weights) {
  TOPKRGS_CHECK(labels.size() == weights.size(), "one weight per row");
  std::vector<RowId> order(labels.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](RowId a, RowId b) {
    const bool a_pos = labels[a] == consequent;
    const bool b_pos = labels[b] == consequent;
    if (a_pos != b_pos) return a_pos;  // consequent class first
    return weights[a] < weights[b];    // lighter rows first
  });
  return order;
}

std::vector<uint32_t> InversePermutation(std::span<const RowId> order) {
  // NOLINT(cast: one position per row, and the row space is uint32)
  const auto n = static_cast<uint32_t>(order.size());
  std::vector<uint32_t> position_of(n);
  for (uint32_t pos = 0; pos < n; ++pos) position_of[order[pos]] = pos;
  return position_of;
}

uint32_t CountClassRows(const DiscreteDataset& data, ClassLabel consequent) {
  uint32_t count = 0;
  for (RowId r = 0; r < data.num_rows(); ++r) {
    if (data.label(r) == consequent) ++count;
  }
  return count;
}

Bitset FrequentItems(const DiscreteDataset& data, ClassLabel consequent,
                     uint32_t min_support) {
  const Bitset class_rows = data.ClassRowset(consequent);
  Bitset items(data.num_items());
  for (ItemId i = 0; i < data.num_items(); ++i) {
    if (data.item_rows(i).IntersectCount(class_rows) >= min_support) {
      items.Set(i);
    }
  }
  return items;
}

}  // namespace topkrgs
