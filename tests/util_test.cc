#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "util/io.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace topkrgs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(IoTest, SplitString) {
  auto fields = SplitString("a\tbb\t\tc", '\t');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "bb");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(IoTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(IoTest, ParseUint) {
  EXPECT_EQ(ParseUint("0").value(), 0u);
  EXPECT_EQ(ParseUint("123456").value(), 123456u);
  EXPECT_FALSE(ParseUint("-3").ok());
  EXPECT_FALSE(ParseUint("").ok());
}

TEST(IoTest, ParseUintDetectsOverflow) {
  EXPECT_EQ(ParseUint("18446744073709551615").value(),
            std::numeric_limits<uint64_t>::max());
  // One past UINT64_MAX used to wrap around silently.
  EXPECT_FALSE(ParseUint("18446744073709551616").ok());
  EXPECT_FALSE(ParseUint("99999999999999999999999999").ok());
}

TEST(IoTest, ParseUint32RejectsValuesPastUint32) {
  EXPECT_EQ(ParseUint32("4294967295").value(), 4294967295u);
  EXPECT_FALSE(ParseUint32("4294967296").ok());
  EXPECT_FALSE(ParseUint32("-1").ok());
}

TEST(IoTest, ParseFiniteDoubleRejectsNanAndInf) {
  EXPECT_DOUBLE_EQ(ParseFiniteDouble("2.5").value(), 2.5);
  // NaN breaks strict weak ordering in the discretizer's sorts; inf breaks
  // cut-point arithmetic. Both must be rejected at the ingestion boundary.
  EXPECT_FALSE(ParseFiniteDouble("nan").ok());
  EXPECT_FALSE(ParseFiniteDouble("-nan").ok());
  EXPECT_FALSE(ParseFiniteDouble("inf").ok());
  EXPECT_FALSE(ParseFiniteDouble("-inf").ok());
  EXPECT_FALSE(ParseFiniteDouble("1e999").ok());
}

TEST(IoTest, SplitIntoLinesHandlesCrlfAndFinalNewline) {
  EXPECT_EQ(SplitIntoLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitIntoLines("a\r\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitIntoLines(""), std::vector<std::string>{});
  EXPECT_EQ(SplitIntoLines("\n"), std::vector<std::string>{""});
}

TEST(IoTest, WriteReadRoundtrip) {
  const std::string path = ::testing::TempDir() + "/topkrgs_io_test.txt";
  ASSERT_TRUE(WriteLines(path, {"one", "two", ""}).ok());
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines.value(), (std::vector<std::string>{"one", "two", ""}));
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadLines("/nonexistent/missing.txt").ok());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedInRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(5);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<uint32_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 10u);
  auto small = rng.SampleWithoutReplacement(100, 5);
  EXPECT_EQ(small.size(), 5u);
  for (uint32_t v : small) EXPECT_LT(v, 100u);
}

TEST(TimerTest, DeadlineUnlimitedNeverExpires) {
  EXPECT_FALSE(Deadline::Unlimited().Expired());
  EXPECT_FALSE(Deadline().Expired());
  // seconds x 1e9 nanoseconds does not fit the clock's int64 ticks for
  // these budgets; they mean "no limit", not "already expired".
  for (double seconds : {1e10, 1e300, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(Deadline(seconds).Expired()) << seconds;
  }
}

TEST(TimerTest, DeadlineExpires) {
  Deadline d(-1.0);  // nonpositive budget: treated as unlimited
  EXPECT_FALSE(d.Expired());
  Deadline tiny(1e-9);
  // A nanosecond budget has certainly elapsed by now.
  EXPECT_TRUE(tiny.Expired());
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace topkrgs
