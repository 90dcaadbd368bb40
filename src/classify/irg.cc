#include "classify/irg.h"

#include <cstdint>
#include <vector>

#include "mine/miner_common.h"
#include "mine/topk_miner.h"

namespace topkrgs {

CbaClassifier TrainIrg(const DiscreteDataset& train, const IrgOptions& options) {
  std::vector<Rule> rules;
  const std::vector<uint32_t> class_counts = train.ClassCounts();
  for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
    if (class_counts[cls] == 0) continue;
    TopkMinerOptions mopt;
    mopt.k = 1;
    mopt.min_support =
        MinSupportFromFrac(options.min_support_frac, class_counts[cls]);
    TopkResult mined = MineTopkRGS(train, static_cast<ClassLabel>(cls), mopt);
    for (const RuleGroupPtr& group : mined.DistinctGroups()) {
      if (group->confidence() < options.min_confidence) continue;
      Rule rule;
      rule.antecedent = group->antecedent;  // upper bound rule
      rule.consequent = group->consequent;
      rule.support = group->support;
      rule.antecedent_support = group->antecedent_support;
      rules.push_back(std::move(rule));
    }
  }
  return CbaClassifier::TrainFromRules(train, std::move(rules));
}

}  // namespace topkrgs
