#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "classify/model_io.h"
#include "cli/commands.h"
#include "cli/flags.h"
#include "discretize/entropy_discretizer.h"

namespace topkrgs {
namespace {

// ctest runs each test case as its own process in parallel; qualify temp
// file names with the pid and test name so concurrent cases never collide.
std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info != nullptr ? info->name() : "unknown";
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + test +
         "_" + name;
}

TEST(FlagParserTest, ParsesBothSyntaxes) {
  auto parser_or = FlagParser::Parse({"--alpha", "1", "--beta=two"});
  ASSERT_TRUE(parser_or.ok());
  const FlagParser& flags = parser_or.value();
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_EQ(flags.GetInt("alpha", 0).value(), 1);
  EXPECT_EQ(flags.GetString("beta", ""), "two");
  EXPECT_EQ(flags.GetString("gamma", "dflt"), "dflt");
}

TEST(FlagParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(FlagParser::Parse({"positional"}).ok());
  EXPECT_FALSE(FlagParser::Parse({"--dangling"}).ok());
  EXPECT_FALSE(FlagParser::Parse({"--x", "1", "--x", "2"}).ok());
}

TEST(FlagParserTest, TypedAccessors) {
  auto flags = FlagParser::Parse({"--n", "42", "--f", "0.5", "--s", "abc"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags.value().GetInt("n", 0).value(), 42);
  EXPECT_DOUBLE_EQ(flags.value().GetDouble("f", 0).value(), 0.5);
  EXPECT_FALSE(flags.value().GetInt("s", 0).ok());
  EXPECT_FALSE(flags.value().GetDouble("s", 0).ok());
  for (const char* non_finite : {"nan", "inf", "-inf", "NaN", "infinity"}) {
    auto parsed = FlagParser::Parse({"--f", non_finite});
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().GetDouble("f", 0).ok()) << non_finite;
  }
  EXPECT_TRUE(flags.value().GetRequired("s").ok());
  EXPECT_FALSE(flags.value().GetRequired("missing").ok());
}

TEST(FlagParserTest, CheckKnownCatchesTypos) {
  auto flags = FlagParser::Parse({"--profle", "ALL"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.value().CheckKnown({"profile"}).ok());
  EXPECT_TRUE(flags.value().CheckKnown({"profle"}).ok());
}

class CliCommandsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = TempPath("cli_train.tsv");
    test_ = TempPath("cli_test.tsv");
    ASSERT_TRUE(RunGenerateCommand({"--profile", "TINY", "--seed", "9",
                                    "--train", train_, "--test", test_})
                    .ok());
  }
  void TearDown() override {
    std::remove(train_.c_str());
    std::remove(test_.c_str());
  }

  std::string train_;
  std::string test_;
};

TEST_F(CliCommandsTest, GenerateRejectsBadProfile) {
  EXPECT_FALSE(RunGenerateCommand({"--profile", "XX", "--train", train_}).ok());
  EXPECT_FALSE(RunGenerateCommand({}).ok());  // missing --train
}

TEST_F(CliCommandsTest, MineTopk) {
  EXPECT_TRUE(RunMineCommand({"--data", train_, "--algorithm", "topk", "--k",
                              "2", "--max-print", "2"})
                  .ok());
}

TEST_F(CliCommandsTest, MineEveryAlgorithm) {
  for (const char* algo : {"topk", "farmer", "charm", "closet"}) {
    EXPECT_TRUE(RunMineCommand({"--data", train_, "--algorithm", algo,
                                "--budget", "10", "--max-print", "1"})
                    .ok())
        << algo;
  }
  EXPECT_FALSE(RunMineCommand({"--data", train_, "--algorithm", "nope"}).ok());
}

TEST_F(CliCommandsTest, MineValidatesArguments) {
  EXPECT_FALSE(RunMineCommand({}).ok());                       // no --data
  EXPECT_FALSE(RunMineCommand({"--data", "/nope.tsv"}).ok());  // missing file
  EXPECT_FALSE(
      RunMineCommand({"--data", train_, "--consequent", "9"}).ok());
  EXPECT_FALSE(
      RunMineCommand({"--data", train_, "--minsup-frac", "1.5"}).ok());
}

// Every command that takes --minsup-frac rejects a value outside (0, 1],
// NaN and infinity included, instead of mining at some other minsup.
TEST_F(CliCommandsTest, EveryCommandRejectsBadMinsupFrac) {
  auto names_the_flag = [](const Status& status) {
    return !status.ok() &&
           status.message().find("--minsup-frac") != std::string::npos;
  };
  for (const char* frac : {"nan", "inf", "0", "1.5"}) {
    EXPECT_TRUE(names_the_flag(
        RunMineCommand({"--data", train_, "--minsup-frac", frac})))
        << frac;
    EXPECT_TRUE(names_the_flag(RunClassifyCommand(
        {"--train", train_, "--test", test_, "--minsup-frac", frac})))
        << frac;
    EXPECT_TRUE(names_the_flag(RunCvCommand(
        {"--data", train_, "--folds", "3", "--minsup-frac", frac})))
        << frac;
  }
}

TEST_F(CliCommandsTest, ClassifyTrainEvaluateSaveLoad) {
  const std::string model = TempPath("cli_model.txt");
  const std::string disc = TempPath("cli_disc.txt");
  ASSERT_TRUE(RunClassifyCommand({"--train", train_, "--test", test_,
                                  "--model", "rcbt", "--k", "3", "--nl", "4",
                                  "--save-model", model,
                                  "--save-discretization", disc})
                  .ok());
  // Apply the persisted model without retraining.
  EXPECT_TRUE(RunClassifyCommand({"--test", test_, "--model", "rcbt",
                                  "--load-model", model,
                                  "--load-discretization", disc})
                  .ok());
  // Loading requires the discretization too.
  EXPECT_FALSE(
      RunClassifyCommand({"--test", test_, "--load-model", model}).ok());
  std::remove(model.c_str());
  std::remove(disc.c_str());
}

// A model and a discretization that are each valid alone but define
// different item universes must fail as a configuration error (exit 6,
// FailedPrecondition) — not as generic bad input (exit 2). Pins the
// operator-facing distinction: fix your deployment, not your data.
TEST_F(CliCommandsTest, ClassifyUniverseMismatchExitsWithCode6) {
  const std::string model = TempPath("cli_model.txt");
  const std::string disc = TempPath("cli_disc.txt");
  const std::string alien_disc = TempPath("cli_alien_disc.txt");
  ASSERT_TRUE(RunClassifyCommand({"--train", train_, "--test", test_,
                                  "--model", "rcbt", "--k", "2", "--nl", "3",
                                  "--save-model", model,
                                  "--save-discretization", disc})
                  .ok());
  // A structurally valid discretization over a 2-item universe: far
  // smaller than anything the trained model was built against.
  ASSERT_TRUE(
      SaveDiscretization(Discretization::FromCuts({0}, {{0.5}}), alien_disc)
          .ok());
  const Status status =
      RunClassifyCommand({"--test", test_, "--model", "rcbt",
                          "--load-model", model,
                          "--load-discretization", alien_disc});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ExitCodeForStatus(status), 6);
  // The matched pair still works (exit 0 path unchanged).
  EXPECT_EQ(ExitCodeForStatus(RunClassifyCommand(
                {"--test", test_, "--model", "rcbt", "--load-model", model,
                 "--load-discretization", disc})),
            0);
  std::remove(model.c_str());
  std::remove(disc.c_str());
  std::remove(alien_disc.c_str());
}

TEST_F(CliCommandsTest, CrossValidationCommand) {
  EXPECT_TRUE(RunCvCommand({"--data", train_, "--model", "cba", "--folds",
                            "3", "--k", "2", "--nl", "3"})
                  .ok());
  EXPECT_TRUE(RunCvCommand({"--data", train_, "--model", "rcbt", "--folds",
                            "3", "--k", "2", "--nl", "3"})
                  .ok());
  EXPECT_FALSE(RunCvCommand({"--data", train_, "--folds", "1"}).ok());
  EXPECT_FALSE(RunCvCommand({"--model", "cba"}).ok());
  EXPECT_FALSE(RunCvCommand({"--data", train_, "--model", "tree"}).ok());
}

TEST_F(CliCommandsTest, ClassifyCba) {
  EXPECT_TRUE(RunClassifyCommand(
                  {"--train", train_, "--test", test_, "--model", "cba"})
                  .ok());
  EXPECT_FALSE(RunClassifyCommand(
                   {"--train", train_, "--test", test_, "--model", "svm"})
                   .ok());
}

// topkrgs-convert + topkrgs-shard-mine round trip, in-process. The item-data
// format is `label \t item item ...`, one row per line (same fixture shape
// as tests/scale_io_test.cc).
class ScaleCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    items_ = TempPath("scale_cli.items");
    tkds_ = TempPath("scale_cli.tkds");
    std::ofstream out(items_);
    ASSERT_TRUE(out.good());
    out << "1\t0 2 5\n"
           "0\t1 2\n"
           "1\t0 2 5\n"
           "0\t3\n"
           "1\t0 5\n"
           "1\t2 5\n";
  }
  void TearDown() override {
    std::remove(items_.c_str());
    std::remove(tkds_.c_str());
  }

  std::string items_;
  std::string tkds_;
};

TEST_F(ScaleCliTest, ConvertRoundTrip) {
  ASSERT_TRUE(
      RunConvertCommand({"--input", items_, "--output", tkds_}).ok());
  // Mining the text path and the converted tkds path must both succeed;
  // shard_merge_test pins digest equality, here we exercise the command
  // wiring end to end.
  EXPECT_TRUE(RunShardMineCommand({"--data", items_, "--k", "2",
                                   "--max-print", "2"})
                  .ok());
  EXPECT_TRUE(RunShardMineCommand({"--data", tkds_, "--k", "2",
                                   "--shards", "2", "--max-print", "2"})
                  .ok());
}

TEST_F(ScaleCliTest, ConvertValidatesArguments) {
  EXPECT_FALSE(RunConvertCommand({}).ok());  // missing --input/--output
  EXPECT_FALSE(RunConvertCommand({"--input", items_}).ok());
  EXPECT_FALSE(
      RunConvertCommand({"--input", "/nope.items", "--output", tkds_}).ok());
  EXPECT_FALSE(RunConvertCommand({"--input", items_, "--output", tkds_,
                                  "--num-items", "-1"})
                   .ok());
  EXPECT_FALSE(RunConvertCommand({"--input", items_, "--output", tkds_,
                                  "--chunk-bytes", "0"})
                   .ok());
  EXPECT_FALSE(RunConvertCommand({"--input", items_, "--output", tkds_,
                                  "--typo", "1"})
                   .ok());
}

TEST_F(ScaleCliTest, ShardMineValidatesArguments) {
  EXPECT_FALSE(RunShardMineCommand({}).ok());  // missing --data
  EXPECT_FALSE(RunShardMineCommand({"--data", "/nope.items"}).ok());
  EXPECT_FALSE(
      RunShardMineCommand({"--data", items_, "--consequent", "7"}).ok());
  EXPECT_FALSE(
      RunShardMineCommand({"--data", items_, "--shards", "-1"}).ok());
  EXPECT_FALSE(
      RunShardMineCommand({"--data", items_, "--threads", "-1"}).ok());
  EXPECT_FALSE(
      RunShardMineCommand({"--data", items_, "--memory-budget", "-1"}).ok());
  for (const char* frac : {"nan", "inf", "0", "1.5"}) {
    const Status status =
        RunShardMineCommand({"--data", items_, "--minsup-frac", frac});
    EXPECT_FALSE(status.ok()) << frac;
    EXPECT_NE(status.message().find("--minsup-frac"), std::string::npos)
        << frac << ": " << status.ToString();
  }
}

TEST_F(ScaleCliTest, ShardMineHugeBudgetDoesNotTimeOut) {
  // A budget past the clock's range is no limit at all.
  testing::internal::CaptureStdout();
  const Status status = RunShardMineCommand(
      {"--data", items_, "--k", "2", "--budget", "1e10"});
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("digest"), std::string::npos) << out;
  EXPECT_EQ(out.find("TIMED OUT"), std::string::npos) << out;
}

}  // namespace
}  // namespace topkrgs
