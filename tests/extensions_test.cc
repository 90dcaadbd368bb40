#include <gtest/gtest.h>

#include "mine/carpenter.h"
#include "mine/naive_miner.h"
#include "test_util.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

std::vector<testing_util::CanonicalGroup> CanonicalPatterns(
    const std::vector<ClosedPattern>& patterns) {
  std::vector<testing_util::CanonicalGroup> out;
  for (const ClosedPattern& p : patterns) {
    out.push_back({p.items.ToVector(), p.support, p.support});
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CarpenterTest, RunningExampleClosedPatterns) {
  DiscreteDataset d = MakeRunningExampleDataset();
  CarpenterOptions opt;
  opt.min_support = 2;
  CarpenterResult result = MineCarpenter(d, opt);
  const auto oracle = NaiveClosedPatterns(d, 2);
  EXPECT_EQ(CanonicalPatterns(result.patterns), CanonicalPatterns(oracle));
  // Pattern supports and rowsets must be consistent.
  for (const ClosedPattern& p : result.patterns) {
    EXPECT_EQ(p.support, p.rows.Count());
    EXPECT_EQ(d.ItemSupportSet(p.items), p.rows);
  }
}

class CarpenterOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(CarpenterOracleTest, MatchesOracle) {
  const auto [seed, minsup] = GetParam();
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(seed), 10, 12, 0.4);
  const auto oracle = NaiveClosedPatterns(d, minsup);
  for (bool prefix : {false, true}) {
    CarpenterOptions opt;
    opt.min_support = minsup;
    opt.use_prefix_tree = prefix;
    CarpenterResult result = MineCarpenter(d, opt);
    ASSERT_EQ(CanonicalPatterns(result.patterns), CanonicalPatterns(oracle))
        << "seed=" << seed << " minsup=" << minsup << " prefix=" << prefix;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CarpenterOracleTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(1u, 2u, 3u,
                                                              5u)));

TEST(CarpenterTest, MaxPatternsStopsEarly) {
  DiscreteDataset d = RandomDataset(9, 12, 14, 0.5);
  CarpenterOptions opt;
  opt.min_support = 1;
  opt.max_patterns = 4;
  CarpenterResult result = MineCarpenter(d, opt);
  EXPECT_EQ(result.patterns.size(), 4u);
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(CarpenterTest, MinsupAboveRowsYieldsNothing) {
  DiscreteDataset d = MakeRunningExampleDataset();
  CarpenterOptions opt;
  opt.min_support = 6;
  EXPECT_TRUE(MineCarpenter(d, opt).patterns.empty());
}

}  // namespace
}  // namespace topkrgs
