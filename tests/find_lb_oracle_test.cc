// FindLB against the breadth-first search it replaced, and
// FindAllLowerBounds against brute force.
//
// The breadth-first FindLB below is the pre-transversal implementation,
// kept verbatim apart from the instrumentation that reports how it ended
// and a plain-bitset support probe.
//
// Where it did not hit max_candidates, FindLowerBounds must return the
// same rules in the same order. Where it did, the rules it found before
// the cap must be a prefix of FindLowerBounds' output: the new search
// probes a subset of the candidates the old one examined, in the same
// order, so it reaches at least as far. Where the cap left the oracle
// only its greedy fallback rule, FindLowerBounds returns that rule too or
// real lower bounds.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "classify/evaluator.h"
#include "classify/find_lb.h"
#include "mine/miner_common.h"
#include "mine/naive_miner.h"
#include "mine/topk_miner.h"
#include "synth/generator.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

// ---- The breadth-first FindLB, verbatim. ------------------------------

struct Candidate {
  std::vector<uint32_t> indices;
};

/// The old probe: |R(A')| equals the group's antecedent support. (It
/// intersected through a RowSet scratch pair; plain bitsets give the same
/// counts.)
bool ChainSupportMatches(const DiscreteDataset& data,
                         const std::vector<ItemId>& universe_items,
                         const std::vector<uint32_t>& indices,
                         uint32_t target_rows) {
  Bitset rows = data.item_rows(universe_items[indices[0]]);
  for (size_t i = 1; i < indices.size(); ++i) {
    if (rows.Count() < target_rows) return false;
    rows.IntersectWith(data.item_rows(universe_items[indices[i]]));
  }
  return rows.Count() == target_rows;
}

/// How the breadth-first search ended.
struct BfsOutcome {
  /// The last window stopped on max_candidates, by the examined count or
  /// by a truncated frontier.
  bool capped = false;
  /// The search found nothing, and the greedy fallback made the rule.
  bool fell_back = false;
};

std::vector<Rule> BfsFindLowerBounds(const DiscreteDataset& data,
                                     const RuleGroup& group,
                                     const std::vector<double>& item_scores,
                                     const FindLbOptions& options,
                                     BfsOutcome* outcome) {
  const uint32_t nl = std::max<uint32_t>(1, options.num_lower_bounds);

  std::vector<ItemId> ranked = group.antecedent.ToVector();
  std::vector<double> scores =
      item_scores.empty() ? ItemScoresFromDiscrete(data) : item_scores;
  std::stable_sort(ranked.begin(), ranked.end(), [&](ItemId a, ItemId b) {
    return scores[a] > scores[b];
  });

  const uint32_t target_rows = group.antecedent_support;
  auto is_lower_bound_support = [&](const std::vector<uint32_t>& indices) {
    return ChainSupportMatches(data, ranked, indices, target_rows);
  };

  std::vector<Rule> found;
  std::vector<std::vector<uint32_t>> found_indices;
  auto contains_found_subset = [&](const std::vector<uint32_t>& indices) {
    for (const auto& lb : found_indices) {
      if (std::includes(indices.begin(), indices.end(), lb.begin(), lb.end())) {
        return true;
      }
    }
    return false;
  };

  uint64_t examined = 0;
  bool truncated = false;
  for (uint32_t window = std::min<size_t>(16, ranked.size());;
       window = std::min<size_t>(static_cast<size_t>(window) * 2,
                                 ranked.size())) {
    found.clear();
    found_indices.clear();
    examined = 0;
    truncated = false;

    std::vector<Candidate> frontier;
    for (uint32_t i = 0; i < window; ++i) frontier.push_back({{i}});
    uint32_t depth = 1;
    while (!frontier.empty() && found.size() < nl &&
           depth <= options.max_depth && examined < options.max_candidates) {
      std::vector<Candidate> next;
      for (const Candidate& c : frontier) {
        if (found.size() >= nl || examined >= options.max_candidates) break;
        ++examined;
        if (contains_found_subset(c.indices)) continue;
        if (is_lower_bound_support(c.indices)) {
          Rule rule;
          rule.antecedent = Bitset(data.num_items());
          for (uint32_t idx : c.indices) rule.antecedent.Set(ranked[idx]);
          rule.consequent = group.consequent;
          rule.support = group.support;
          rule.antecedent_support = group.antecedent_support;
          found.push_back(std::move(rule));
          found_indices.push_back(c.indices);
          continue;
        }
        for (uint32_t idx = c.indices.back() + 1;
             idx < window && next.size() < options.max_candidates; ++idx) {
          Candidate child = c;
          child.indices.push_back(idx);
          next.push_back(std::move(child));
        }
        if (next.size() >= options.max_candidates) truncated = true;
      }
      frontier = std::move(next);
      ++depth;
    }

    if (found.size() >= nl || window == ranked.size() ||
        examined >= options.max_candidates) {
      break;
    }
  }
  outcome->capped = examined >= options.max_candidates || truncated;

  if (found.empty() && !ranked.empty()) {
    outcome->fell_back = true;
    Bitset antecedent = group.antecedent;
    for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {
      if (antecedent.Count() <= 1) break;
      Bitset trial = antecedent;
      trial.Reset(*it);
      if (data.ItemSupportSet(trial).Count() == target_rows) {
        antecedent = std::move(trial);
      }
    }
    Rule rule;
    rule.antecedent = std::move(antecedent);
    rule.consequent = group.consequent;
    rule.support = group.support;
    rule.antecedent_support = group.antecedent_support;
    found.push_back(std::move(rule));
  }
  return found;
}

// ---- Comparison. --------------------------------------------------------

struct OracleTally {
  uint64_t calls = 0;
  uint64_t capped = 0;
  uint64_t capped_fallbacks = 0;  // capped before any bound: greedy rule
  uint64_t recovered = 0;         // ... where the new search finds bounds
  uint64_t rules = 0;
};

/// Each rule is a lower bound of `group` (Lemma 5.1), shortest first.
void ExpectLowerBounds(const DiscreteDataset& data, const RuleGroup& group,
                       const std::vector<Rule>& rules) {
  for (size_t i = 0; i < rules.size(); ++i) {
    const Bitset& a = rules[i].antecedent;
    EXPECT_TRUE(a.IsSubsetOf(group.antecedent));
    EXPECT_EQ(data.ItemSupportSet(a).Count(), group.antecedent_support);
    a.ForEach([&](size_t drop) {
      if (a.Count() == 1) return;
      Bitset sub = a;
      sub.Reset(drop);
      EXPECT_GT(data.ItemSupportSet(sub).Count(), group.antecedent_support)
          << "non-minimal lower bound";
    });
    if (i > 0) {
      EXPECT_LE(rules[i - 1].antecedent.Count(), a.Count());
    }
  }
}

/// Runs both searches on one group and checks the contract above.
void ExpectMatchesBfs(const DiscreteDataset& data, const RuleGroup& group,
                      const std::vector<double>& scores,
                      const FindLbOptions& options, OracleTally* tally) {
  BfsOutcome outcome;
  const std::vector<Rule> want =
      BfsFindLowerBounds(data, group, scores, options, &outcome);
  const std::vector<Rule> got = FindLowerBounds(data, group, scores, options);
  ++tally->calls;
  tally->capped += outcome.capped ? 1 : 0;
  tally->rules += got.size();
  if (outcome.capped && outcome.fell_back) {
    // The cap stopped the oracle before it found any lower bound, so it
    // fell back to the greedy rule. The new search probes fewer candidates
    // and can get past the cap (for instance into a wider window); then
    // it must return real lower bounds. Otherwise it falls back the same.
    ++tally->capped_fallbacks;
    if (got.size() == 1 && got[0].antecedent == want[0].antecedent) return;
    ++tally->recovered;
    ExpectLowerBounds(data, group, got);
    return;
  }
  if (outcome.capped) {
    ASSERT_LE(want.size(), got.size()) << group.ToString();
  } else {
    ASSERT_EQ(want.size(), got.size()) << group.ToString();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].antecedent.ToVector(), got[i].antecedent.ToVector())
        << "rule " << i << " of " << group.ToString();
    EXPECT_EQ(want[i].consequent, got[i].consequent);
    EXPECT_EQ(want[i].support, got[i].support);
    EXPECT_EQ(want[i].antecedent_support, got[i].antecedent_support);
  }
}

TEST(FindLbOracleTest, MatchesBfsOnRandomGroups) {
  OracleTally tally;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    // Dense rows give upper bounds past the first 16-item window.
    const double density = seed % 2 == 0 ? 0.45 : 0.8;
    DiscreteDataset d = RandomDataset(seed, 10, 24, density);
    const std::vector<double> scores = ItemScoresFromDiscrete(d);
    for (ClassLabel cls : {ClassLabel{0}, ClassLabel{1}}) {
      for (const RuleGroup& g : NaiveRuleGroups(d, cls, 2)) {
        for (uint32_t nl : {1u, 3u, 20u}) {
          FindLbOptions opt;
          opt.num_lower_bounds = nl;
          ExpectMatchesBfs(d, g, scores, opt, &tally);
          opt.max_depth = 3;
          opt.max_candidates = 40;  // small enough to cap some windows
          ExpectMatchesBfs(d, g, scores, opt, &tally);
        }
      }
    }
  }
  EXPECT_GT(tally.capped, tally.capped_fallbacks)
      << "no call exercised the capped prefix contract";
  EXPECT_LT(tally.capped, tally.calls);
}

TEST(FindLbOracleTest, MatchesBfsOnUnrankedAndTiedScores) {
  // Empty scores rank by ItemScoresFromDiscrete; all-equal scores keep the
  // upper bound's item-id order (the sort is stable).
  OracleTally tally;
  DiscreteDataset d = RandomDataset(77, 10, 24, 0.7);
  const std::vector<double> flat(d.num_items(), 1.0);
  for (const RuleGroup& g : NaiveRuleGroups(d, 1, 2)) {
    FindLbOptions opt;
    opt.num_lower_bounds = 8;
    ExpectMatchesBfs(d, g, {}, opt, &tally);
    ExpectMatchesBfs(d, g, flat, opt, &tally);
  }
  EXPECT_GT(tally.calls, 0u);
}

TEST(FindLbOracleTest, MatchesBfsWhenTheGroupCoversEveryRow) {
  // Items 0 and 1 are in every row, so no row lies outside the group: the
  // hypergraph has no edges, and each single item is a lower bound.
  DiscreteDataset d(4, {{0, 1, 2}, {0, 1, 3}, {0, 1, 2, 3}}, {1, 0, 1});
  Bitset zero(d.num_items());
  zero.Set(0);
  const RuleGroup g = CloseItemset(d, zero, 1);
  ASSERT_EQ(g.antecedent.ToVector(), (std::vector<uint32_t>{0, 1}));
  OracleTally tally;
  for (uint32_t nl : {1u, 5u}) {
    FindLbOptions opt;
    opt.num_lower_bounds = nl;
    ExpectMatchesBfs(d, g, {}, opt, &tally);
  }
  const auto all = FindAllLowerBounds(d, g, 6, 0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].antecedent.ToVector(), std::vector<uint32_t>{0});
  EXPECT_EQ(all[1].antecedent.ToVector(), std::vector<uint32_t>{1});
}

/// Top-k rule groups of both classes of one paper profile, mined as
/// RcbtClassifier::Train does (k = 10, minsup 0.7 of each class).
struct MinedProfile {
  Pipeline pipeline;
  std::vector<TopkResult> mined;
};

MinedProfile MineProfile(const DatasetProfile& profile) {
  MinedProfile out;
  const GeneratedData data = GenerateMicroarray(profile);
  out.pipeline = PreparePipeline(data.train, data.test);
  const DiscreteDataset& train = out.pipeline.train;
  const std::vector<uint32_t> counts = train.ClassCounts();
  out.mined.resize(train.num_classes());
  for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
    TopkMinerOptions mopt;
    mopt.k = 10;
    mopt.min_support = MinSupportFromFrac(0.7, counts[cls]);
    out.mined[cls] = MineTopkRGS(train, static_cast<ClassLabel>(cls), mopt);
  }
  return out;
}

/// Compares every FindLB call RCBT training makes for ranks 1..max_rank.
OracleTally SweepProfile(const DatasetProfile& profile, uint32_t max_rank) {
  const MinedProfile p = MineProfile(profile);
  FindLbOptions opt;
  opt.num_lower_bounds = 20;
  OracleTally tally;
  for (uint32_t j = 1; j <= max_rank; ++j) {
    for (const TopkResult& mined : p.mined) {
      for (const RuleGroupPtr& group : mined.GroupsAtRank(j)) {
        ExpectMatchesBfs(p.pipeline.train, *group, p.pipeline.item_scores,
                         opt, &tally);
      }
    }
  }
  return tally;
}

TEST(FindLbOracleTest, MatchesBfsOnOcTopOneGroups) {
  const OracleTally tally = SweepProfile(DatasetProfile::OC(), 1);
  EXPECT_GT(tally.calls, 0u);
  EXPECT_GT(tally.rules, tally.calls);
}

/// Every FindLB call of RCBT training (ranks 1..10, both classes) on all
/// four paper profiles. The breadth-first oracle alone takes seconds per
/// profile, so this runs only with TOPKRGS_SLOW_TESTS=1 (tools/ci.sh scale
/// sets it).
TEST(FindLbOracleTest, MatchesBfsOnEveryRcbtCallOfThePaperProfiles) {
  if (std::getenv("TOPKRGS_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "set TOPKRGS_SLOW_TESTS=1 to run the paper-profile sweep";
  }
  for (const DatasetProfile& profile : PaperProfiles()) {
    const OracleTally tally = SweepProfile(profile, 10);
    EXPECT_GT(tally.calls, 0u) << profile.name;
    std::printf(
        "%s: %llu FindLB calls, %llu capped in the oracle; %llu of those "
        "left it only the greedy fallback, and the new search finds lower "
        "bounds in %llu of them\n",
        profile.name.c_str(), static_cast<unsigned long long>(tally.calls),
        static_cast<unsigned long long>(tally.capped),
        static_cast<unsigned long long>(tally.capped_fallbacks),
        static_cast<unsigned long long>(tally.recovered));
  }
}

// ---- FindAllLowerBounds against brute force. ----------------------------

/// Every lower bound of `group` of at most max_depth items, by size and
/// then lexicographic item ids: each non-empty subset of the upper bound
/// with the group's support set, none of whose proper non-empty subsets
/// has it.
std::vector<std::vector<uint32_t>> BruteForceLowerBounds(
    const DiscreteDataset& data, const RuleGroup& group, uint32_t max_depth) {
  const std::vector<uint32_t> items = group.antecedent.ToVector();
  const uint32_t n = static_cast<uint32_t>(items.size());
  auto support_matches = [&](uint32_t mask) {
    Bitset s(data.num_items());
    for (uint32_t i = 0; i < n; ++i) {
      if (mask >> i & 1u) s.Set(items[i]);
    }
    return data.ItemSupportSet(s) == group.row_support;
  };
  std::vector<std::vector<uint32_t>> out;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    const uint32_t size = static_cast<uint32_t>(__builtin_popcount(mask));
    if (size > max_depth || !support_matches(mask)) continue;
    bool minimal = true;
    for (uint32_t i = 0; i < n && size > 1 && minimal; ++i) {
      if ((mask >> i & 1u) && support_matches(mask & ~(1u << i))) {
        minimal = false;
      }
    }
    if (!minimal) continue;
    std::vector<uint32_t> bound;
    for (uint32_t i = 0; i < n; ++i) {
      if (mask >> i & 1u) bound.push_back(items[i]);
    }
    out.push_back(std::move(bound));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  return out;
}

TEST(FindLbOracleTest, FindAllLowerBoundsMatchesBruteForce) {
  uint64_t groups = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    DiscreteDataset d = RandomDataset(100 + seed, 10, 12, 0.6);
    for (ClassLabel cls : {ClassLabel{0}, ClassLabel{1}}) {
      for (const RuleGroup& g : NaiveRuleGroups(d, cls, 1)) {
        ASSERT_LE(g.antecedent.Count(), 12u);
        ++groups;
        for (uint32_t max_depth : {2u, 12u}) {
          const auto want = BruteForceLowerBounds(d, g, max_depth);
          const auto all = FindAllLowerBounds(d, g, max_depth, 0);
          ASSERT_EQ(all.size(), want.size()) << g.ToString();
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(all[i].antecedent.ToVector(), want[i]);
            EXPECT_EQ(all[i].antecedent_support, g.antecedent_support);
          }
          // max_bounds keeps a prefix.
          const auto capped = FindAllLowerBounds(d, g, max_depth, 2);
          ASSERT_EQ(capped.size(), std::min<size_t>(2, want.size()));
          for (size_t i = 0; i < capped.size(); ++i) {
            EXPECT_EQ(capped[i].antecedent.ToVector(), want[i]);
          }
        }
      }
    }
  }
  EXPECT_GT(groups, 50u);
}

}  // namespace
}  // namespace topkrgs
