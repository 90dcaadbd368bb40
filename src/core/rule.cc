#include "core/rule.h"

#include <cstdio>

#include "util/check.h"

namespace topkrgs {

namespace {

std::string ItemsetToString(const Bitset& items) {
  std::string out = "{";
  bool first = true;
  items.ForEach([&](size_t i) {
    if (!first) out += ',';
    out += 'i';
    out += std::to_string(i);
    first = false;
  });
  out += '}';
  return out;
}

std::string Describe(const Bitset& antecedent, ClassLabel consequent,
                     uint32_t support, double confidence) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " -> %d (sup=%u, conf=%.3f)",
                int{consequent}, support, confidence);
  return ItemsetToString(antecedent) + buf;
}

}  // namespace

std::string Rule::ToString() const {
  return Describe(antecedent, consequent, support, confidence());
}

std::string RuleGroup::ToString() const {
  return Describe(antecedent, consequent, support, confidence());
}

bool RuleGroup::CheckInvariants(std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (antecedent_support != row_support.Count()) {
    return fail("antecedent_support (" + std::to_string(antecedent_support) +
                ") != |row_support| (" + std::to_string(row_support.Count()) +
                ")");
  }
  if (support > antecedent_support) {
    return fail("support (" + std::to_string(support) +
                ") > antecedent_support (" +
                std::to_string(antecedent_support) + ")");
  }
  if (support > 0 && row_support.None()) {
    return fail("support counted but row_support is empty");
  }
  const double conf = confidence();
  if (conf < 0.0 || conf > 1.0) {
    return fail("confidence " + std::to_string(conf) + " outside [0, 1]");
  }
  return true;
}

void RuleGroup::ValidateInvariants() const {
#if TOPKRGS_DCHECK_IS_ON()
  std::string error;
  TKRGS_DCHECK(CheckInvariants(&error), error.c_str());
#endif
}

bool MoreSignificant(const RuleGroup& a, const RuleGroup& b) {
  return CompareSignificance(a.support, a.antecedent_support, b.support,
                             b.antecedent_support) > 0;
}

RuleGroup CloseItemset(const DiscreteDataset& data, const Bitset& itemset,
                       ClassLabel consequent) {
  RuleGroup group;
  group.consequent = consequent;
  group.row_support = data.ItemSupportSet(itemset);
  group.antecedent = data.RowSupportSet(group.row_support);
  // NOLINT(cast: Count() and IntersectCount() <= num_rows, a uint32)
  group.antecedent_support = static_cast<uint32_t>(group.row_support.Count());
  const size_t class_sup =
      group.row_support.IntersectCount(data.ClassRowset(consequent));
  // NOLINT(cast: bounded by antecedent_support above)
  group.support = static_cast<uint32_t>(class_sup);
  group.ValidateInvariants();
  return group;
}

}  // namespace topkrgs
