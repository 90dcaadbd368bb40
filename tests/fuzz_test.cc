// Randomized model-based tests: Bitset against std::set, dataset index
// invariants, significance-order laws, and rule-sorting properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "classify/cba.h"
#include "core/dataset.h"
#include "core/rule.h"
#include "test_util.h"
#include "util/bitset.h"
#include "util/random.h"

namespace topkrgs {
namespace {

using testing_util::RandomDataset;

class BitsetFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BitsetFuzzTest, MatchesSetModel) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const size_t universe = 1 + rng.NextBounded(300);
  Bitset a(universe), b(universe);
  std::set<size_t> ma, mb;

  for (int op = 0; op < 300; ++op) {
    const size_t pos = rng.NextBounded(universe);
    switch (rng.NextBounded(6)) {
      case 0:
        a.Set(pos);
        ma.insert(pos);
        break;
      case 1:
        a.Reset(pos);
        ma.erase(pos);
        break;
      case 2:
        b.Set(pos);
        mb.insert(pos);
        break;
      case 3:
        b.Reset(pos);
        mb.erase(pos);
        break;
      case 4: {
        // Verify a derived operation against the model.
        std::set<size_t> expected;
        std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                              std::inserter(expected, expected.begin()));
        ASSERT_EQ(a.IntersectCount(b), expected.size());
        const Bitset inter = Intersect(a, b);
        ASSERT_EQ(inter.Count(), expected.size());
        for (size_t i : expected) ASSERT_TRUE(inter.Test(i));
        break;
      }
      case 5: {
        const bool subset =
            std::includes(mb.begin(), mb.end(), ma.begin(), ma.end());
        ASSERT_EQ(a.IsSubsetOf(b), subset);
        bool intersects = false;
        for (size_t i : ma) {
          if (mb.count(i)) {
            intersects = true;
            break;
          }
        }
        ASSERT_EQ(a.Intersects(b), intersects);
        break;
      }
    }
    ASSERT_EQ(a.Count(), ma.size());
    ASSERT_EQ(a.None(), ma.empty());
    // Iteration agrees with the model.
    if (op % 37 == 0) {
      std::vector<uint32_t> listed = a.ToVector();
      std::vector<uint32_t> expected(ma.begin(), ma.end());
      ASSERT_EQ(listed, expected);
      // FindFirst / FindNext walk the same sequence.
      size_t pos2 = a.FindFirst();
      for (uint32_t e : expected) {
        ASSERT_EQ(pos2, e);
        pos2 = a.FindNext(pos2);
      }
      ASSERT_EQ(pos2, a.size());
    }
  }
  // Union and subtraction, final check.
  std::set<size_t> u;
  std::set_union(ma.begin(), ma.end(), mb.begin(), mb.end(),
                 std::inserter(u, u.begin()));
  EXPECT_EQ(Union(a, b).Count(), u.size());
  std::set<size_t> diff;
  std::set_difference(ma.begin(), ma.end(), mb.begin(), mb.end(),
                      std::inserter(diff, diff.begin()));
  EXPECT_EQ(Subtract(a, b).Count(), diff.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitsetFuzzTest, ::testing::Range(0, 8));

class DatasetInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(DatasetInvariantTest, GaloisConnectionLaws) {
  DiscreteDataset d = RandomDataset(static_cast<uint64_t>(GetParam()) + 400,
                                    11, 13, 0.4);
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    // Random itemset A: R(A) then I(R(A)) ⊇ A, and R(I(R(A))) == R(A)
    // (the Galois closure laws the miners rely on).
    Bitset items(d.num_items());
    for (int i = 0; i < 4; ++i) items.Set(rng.NextBounded(d.num_items()));
    const Bitset rows = d.ItemSupportSet(items);
    const Bitset closure = d.RowSupportSet(rows);
    if (rows.Any()) {
      ASSERT_TRUE(items.IsSubsetOf(closure));
    }
    ASSERT_EQ(d.ItemSupportSet(closure), rows);

    // Dually for row sets.
    Bitset rset(d.num_rows());
    for (int i = 0; i < 3; ++i) rset.Set(rng.NextBounded(d.num_rows()));
    const Bitset common = d.RowSupportSet(rset);
    const Bitset rclosure = d.ItemSupportSet(common);
    ASSERT_TRUE(rset.IsSubsetOf(rclosure));
    ASSERT_EQ(d.RowSupportSet(rclosure), common);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DatasetInvariantTest, ::testing::Range(0, 6));

TEST(SignificanceLawsTest, TotalPreorderOnRandomPairs) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint32_t a_as = 1 + rng.NextBounded(40);
    const uint32_t a_sup = rng.NextBounded(a_as + 1);
    const uint32_t b_as = 1 + rng.NextBounded(40);
    const uint32_t b_sup = rng.NextBounded(b_as + 1);
    const uint32_t c_as = 1 + rng.NextBounded(40);
    const uint32_t c_sup = rng.NextBounded(c_as + 1);

    const int ab = CompareSignificance(a_sup, a_as, b_sup, b_as);
    const int ba = CompareSignificance(b_sup, b_as, a_sup, a_as);
    ASSERT_EQ(ab, -ba);  // antisymmetry
    ASSERT_EQ(CompareSignificance(a_sup, a_as, a_sup, a_as), 0);

    // Transitivity of "not less significant".
    const int bc = CompareSignificance(b_sup, b_as, c_sup, c_as);
    const int ac = CompareSignificance(a_sup, a_as, c_sup, c_as);
    if (ab >= 0 && bc >= 0) {
      ASSERT_GE(ac, 0);
    }
    if (ab > 0 && bc > 0) {
      ASSERT_GT(ac, 0);
    }

    // Consistency with floating-point confidence where it is exact enough.
    const double ca = static_cast<double>(a_sup) / a_as;
    const double cb = static_cast<double>(b_sup) / b_as;
    if (ca > cb + 1e-9) {
      ASSERT_GT(ab, 0);
    }
    if (cb > ca + 1e-9) {
      ASSERT_LT(ab, 0);
    }
  }
}

TEST(SortRulesTest, OutputIsSortedByPrecedence) {
  Rng rng(7);
  DiscreteDataset d = RandomDataset(17, 8, 12, 0.4);
  std::vector<Rule> rules;
  for (int i = 0; i < 40; ++i) {
    Rule r;
    r.antecedent = Bitset(d.num_items());
    const int len = 1 + rng.NextBounded(4);
    for (int j = 0; j < len; ++j) r.antecedent.Set(rng.NextBounded(12));
    r.consequent = rng.NextBool(0.5) ? 1 : 0;
    r.antecedent_support = 1 + rng.NextBounded(10);
    r.support = rng.NextBounded(r.antecedent_support + 1);
    rules.push_back(std::move(r));
  }
  SortRulesByPrecedence(&rules);
  for (size_t i = 1; i < rules.size(); ++i) {
    const int sig = CompareSignificance(
        rules[i - 1].support, rules[i - 1].antecedent_support,
        rules[i].support, rules[i].antecedent_support);
    ASSERT_GE(sig, 0) << i;
    if (sig == 0) {
      ASSERT_LE(rules[i - 1].antecedent.Count(), rules[i].antecedent.Count())
          << "equal significance must order shorter rules first";
    }
  }
}

}  // namespace
}  // namespace topkrgs
