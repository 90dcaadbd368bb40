#include "mine/transposed_table.h"

#include <algorithm>

#include "mine/miner_common.h"
#include "util/rowset.h"

namespace topkrgs {

TransposedTable TransposedTable::Build(const DiscreteDataset& data,
                                       const std::vector<RowId>& order,
                                       const Bitset& items) {
  const std::vector<uint32_t> position_of = InversePermutation(order);
  TransposedTable tt;
  items.ForEach([&](size_t item) {
    Tuple tuple;
    // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
    tuple.item = static_cast<ItemId>(item);
    data.item_rows(tuple.item).ForEach([&](size_t row) {
      tuple.positions.push_back(position_of[row]);
    });
    std::sort(tuple.positions.begin(), tuple.positions.end());
    tt.tuples_.push_back(std::move(tuple));
  });
  return tt;
}

TransposedTable TransposedTable::Project(uint32_t pos) const {
  TransposedTable out;
  for (const Tuple& tuple : tuples_) {
    if (!sorted::Contains(tuple.positions.data(), tuple.positions.size(),
                          pos)) {
      continue;
    }
    Tuple projected;
    projected.item = tuple.item;
    // Positions are sorted: the projected suffix starts right after pos.
    const auto first = std::upper_bound(tuple.positions.begin(),
                                        tuple.positions.end(), pos);
    projected.positions.assign(first, tuple.positions.end());
    out.tuples_.push_back(std::move(projected));
  }
  return out;
}

uint32_t TransposedTable::Frequency(uint32_t pos) const {
  uint32_t freq = 0;
  for (const Tuple& tuple : tuples_) {
    if (sorted::Contains(tuple.positions.data(), tuple.positions.size(),
                         pos)) {
      ++freq;
    }
  }
  return freq;
}

std::string TransposedTable::ToString() const {
  std::string out;
  for (const Tuple& tuple : tuples_) {
    out += 'i';
    out += std::to_string(tuple.item);
    out += ':';
    for (uint32_t p : tuple.positions) {
      out += ' ';
      out += std::to_string(p);
    }
    out += '\n';
  }
  return out;
}

}  // namespace topkrgs
