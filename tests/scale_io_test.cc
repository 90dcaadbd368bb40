#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "scale/mmap_dataset.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "synth/generator.h"
#include "synth/scale_profile.h"
#include "util/io.h"

namespace topkrgs {
namespace {

std::string TempPath(const std::string& test, const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + test +
         "_" + name;
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void ExpectSameView(const TransposedView& a, const TransposedView& b) {
  ASSERT_EQ(a.num_items, b.num_items);
  ASSERT_EQ(a.num_rows, b.num_rows);
  ASSERT_EQ(a.num_classes, b.num_classes);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (uint32_t r = 0; r < a.num_rows; ++r) {
    EXPECT_EQ(a.labels[r], b.labels[r]) << "row " << r;
  }
  for (uint32_t i = 0; i <= a.num_items; ++i) {
    ASSERT_EQ(a.item_offsets[i], b.item_offsets[i]) << "item " << i;
  }
  for (uint64_t n = 0; n < a.nnz(); ++n) {
    ASSERT_EQ(a.item_row_ids[n], b.item_row_ids[n]) << "entry " << n;
  }
}

TEST(CheckedIndexTest, Boundary) {
  auto max_ok =
      CheckedIndexU32(std::numeric_limits<uint32_t>::max(), "row count");
  ASSERT_TRUE(max_ok.ok());
  EXPECT_EQ(max_ok.value(), std::numeric_limits<uint32_t>::max());

  auto overflow = CheckedIndexU32(
      static_cast<uint64_t>(std::numeric_limits<uint32_t>::max()) + 1,
      "row count");
  EXPECT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("row count"), std::string::npos);
  EXPECT_NE(overflow.status().message().find("uint32"), std::string::npos);

  EXPECT_TRUE(CheckedIndexU32(0, "item id").ok());
}

/// The streaming parse and the in-memory ParseItemData must accept exactly
/// the same files and build the same transposed table (modulo layout).
TEST(StreamReaderTest, MatchesDenseParse) {
  const std::string text =
      "1\t0 2 5\n"
      "0\t1 2\n"
      "1\t5 0 5\n"  // duplicate item collapses
      "0\t\n"       // empty row, still a row
      "1\t3\n";
  auto streamed_or = StreamReader::ParseItemData(text);
  ASSERT_TRUE(streamed_or.ok()) << streamed_or.status().ToString();
  const StreamedTable& table = streamed_or.value();

  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  auto dense_or = DiscreteDataset::ParseItemData(lines, 0);
  ASSERT_TRUE(dense_or.ok());
  const DiscreteDataset& dense = dense_or.value();

  ASSERT_EQ(table.num_items(), dense.num_items());
  ASSERT_EQ(table.num_rows(), dense.num_rows());
  const TransposedView view = table.View();
  for (uint32_t r = 0; r < dense.num_rows(); ++r) {
    EXPECT_EQ(view.labels[r], dense.label(r));
  }
  for (uint32_t i = 0; i < dense.num_items(); ++i) {
    const uint32_t* ids = view.rows_of(i);
    const auto rows = dense.item_rows(i).ToVector();
    ASSERT_EQ(view.rows_count(i), rows.size()) << "item " << i;
    for (size_t n = 0; n < rows.size(); ++n) {
      EXPECT_EQ(ids[n], rows[n]) << "item " << i;
    }
  }

  // Round-trip through the dense materializer preserves rows and labels.
  const DiscreteDataset back = MaterializeDataset(view);
  ASSERT_EQ(back.num_rows(), dense.num_rows());
  for (uint32_t r = 0; r < dense.num_rows(); ++r) {
    EXPECT_EQ(back.row_items(r), dense.row_items(r)) << "row " << r;
    EXPECT_EQ(back.label(r), dense.label(r)) << "row " << r;
  }
}

TEST(StreamReaderTest, RejectsWhatDenseParseRejects) {
  EXPECT_FALSE(StreamReader::ParseItemData("").ok());
  EXPECT_FALSE(StreamReader::ParseItemData("no tab here\n").ok());
  EXPECT_FALSE(StreamReader::ParseItemData("9999\t0\n").ok());  // label range
  StreamReader::Options declared;
  declared.num_items = 4;
  EXPECT_FALSE(StreamReader::ParseItemData("1\t4\n", declared).ok());
  EXPECT_TRUE(StreamReader::ParseItemData("1\t3\n", declared).ok());
}

/// File reads must be chunking-independent, including chunks that split
/// lines mid-field and a final line with no trailing newline.
TEST(StreamReaderTest, ChunkSizeIndependent) {
  const ScaleProfile profile = ScaleProfile::Micro();
  std::string text;
  for (uint64_t row = 0; row < 64; ++row) AppendScaleRow(profile, row, &text);
  text.pop_back();  // drop the final newline: last line is unterminated

  const std::string path = TempPath("stream_reader", "chunks.items");
  ASSERT_TRUE(WriteFileBytes(path, text).ok());

  auto reference_or = StreamReader::ParseItemData(text);
  ASSERT_TRUE(reference_or.ok());
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
    StreamReader::Options options;
    options.chunk_bytes = chunk;
    auto got_or = StreamReader::ReadItemData(path, options);
    ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
    ExpectSameView(reference_or.value().View(), got_or.value().View());
  }
  std::remove(path.c_str());
}

TEST(MmapDatasetTest, RoundTripAndValidation) {
  const ScaleProfile profile = ScaleProfile::Micro();
  std::string text;
  for (uint64_t row = 0; row < 100; ++row) AppendScaleRow(profile, row, &text);
  auto table_or = StreamReader::ParseItemData(text);
  ASSERT_TRUE(table_or.ok());

  const std::string path = TempPath("mmap_dataset", "round.tkds");
  ASSERT_TRUE(WriteTkds(table_or.value(), path).ok());
  {
    auto mapped_or = MmapDataset::Open(path);
    ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
    ExpectSameView(table_or.value().View(), mapped_or.value().View());
    EXPECT_GT(mapped_or.value().mapped_bytes(), 0u);
  }

  // Corruptions: bad magic, truncation, out-of-range label.
  const std::string good = ReadFileOrDie(path);
  {
    std::string bad = good;
    bad[0] = 'X';
    ASSERT_TRUE(WriteFileBytes(path, bad).ok());
    EXPECT_FALSE(MmapDataset::Open(path).ok());
  }
  {
    std::string bad = good.substr(0, good.size() - 8);
    ASSERT_TRUE(WriteFileBytes(path, bad).ok());
    EXPECT_FALSE(MmapDataset::Open(path).ok());
  }
  {
    std::string bad = good;
    bad[32] = static_cast<char>(0xee);  // first label
    ASSERT_TRUE(WriteFileBytes(path, bad).ok());
    EXPECT_FALSE(MmapDataset::Open(path).ok());
  }
  std::remove(path.c_str());
}

TEST(ShardPlannerTest, BudgetRejectsAndCountTiles) {
  const ScaleProfile profile = ScaleProfile::Micro();
  std::string text;
  for (uint64_t row = 0; row < profile.rows; ++row) {
    AppendScaleRow(profile, row, &text);
  }
  auto table_or = StreamReader::ParseItemData(text);
  ASSERT_TRUE(table_or.ok());
  const TransposedView view = table_or.value().View();

  ShardPlanOptions options;
  options.k = 2;
  options.min_support = profile.SuggestedMinSupport();

  options.memory_budget_bytes = 1;  // below any feasible working set
  auto infeasible = PlanShards(view, 1, options);
  EXPECT_FALSE(infeasible.ok());
  EXPECT_NE(infeasible.status().message().find("memory budget"),
            std::string::npos);

  options.memory_budget_bytes = 0;  // unlimited -> one shard
  auto unlimited = PlanShards(view, 1, options);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited.value().shards.size(), 1u);
  EXPECT_GT(unlimited.value().estimated_peak_bytes, 0u);

  // A feasible budget only checks: the plan is still one shard.
  options.memory_budget_bytes = unlimited.value().estimated_peak_bytes;
  auto feasible = PlanShards(view, 1, options);
  ASSERT_TRUE(feasible.ok());
  EXPECT_EQ(feasible.value().shards.size(), 1u);

  // An explicit count plans ranges that tile [0, positives) in order.
  options.shard_count = 5;
  auto split = PlanShards(view, 1, options);
  ASSERT_TRUE(split.ok());
  const ShardPlan& plan = split.value();
  ASSERT_GT(plan.shards.size(), 1u);
  uint32_t cursor = 0;
  for (const ShardRange& range : plan.shards) {
    EXPECT_EQ(range.begin_pos, cursor);
    EXPECT_GT(range.end_pos, range.begin_pos);
    cursor = range.end_pos;
  }
  EXPECT_LE(cursor, plan.positives);

  auto bad_class = PlanShards(view, 7, options);
  EXPECT_FALSE(bad_class.ok());
}

/// The streaming TSV path must emit byte-identical files to the
/// in-memory generator followed by WriteTsv, for any chunk size.
TEST(StreamTsvTest, ByteIdenticalToWriteTsv) {
  const DatasetProfile profile = DatasetProfile::Tiny(77);
  const GeneratedData data = GenerateMicroarray(profile);
  const std::string train_ref = TempPath("stream_tsv", "train_ref.tsv");
  const std::string test_ref = TempPath("stream_tsv", "test_ref.tsv");
  ASSERT_TRUE(data.train.WriteTsv(train_ref).ok());
  ASSERT_TRUE(data.test.WriteTsv(test_ref).ok());

  for (const size_t chunk : {size_t{1}, size_t{64}, size_t{1} << 20}) {
    const std::string train = TempPath("stream_tsv", "train.tsv");
    const std::string test = TempPath("stream_tsv", "test.tsv");
    ASSERT_TRUE(StreamMicroarrayTsv(profile, train, test, chunk).ok());
    EXPECT_EQ(ReadFileOrDie(train), ReadFileOrDie(train_ref))
        << "chunk " << chunk;
    EXPECT_EQ(ReadFileOrDie(test), ReadFileOrDie(test_ref))
        << "chunk " << chunk;
    std::remove(train.c_str());
    std::remove(test.c_str());
  }
  std::remove(train_ref.c_str());
  std::remove(test_ref.c_str());
}

/// Scale rows depend on (seed, row) alone: writer chunking cannot change
/// the bytes, and different seeds produce different files.
TEST(ScaleProfileTest, ChunkIndependentAndSeeded) {
  ScaleProfile profile = ScaleProfile::Micro();
  profile.rows = 50;
  const std::string a = TempPath("scale_profile", "a.items");
  const std::string b = TempPath("scale_profile", "b.items");
  ASSERT_TRUE(WriteScaleItemData(profile, a, 1).ok());
  ASSERT_TRUE(WriteScaleItemData(profile, b, 4096).ok());
  EXPECT_EQ(ReadFileOrDie(a), ReadFileOrDie(b));

  ScaleProfile other = profile;
  other.seed = profile.seed + 1;
  ASSERT_TRUE(WriteScaleItemData(other, b, 4096).ok());
  EXPECT_NE(ReadFileOrDie(a), ReadFileOrDie(b));
  std::remove(a.c_str());
  std::remove(b.c_str());

  ScaleProfile invalid = profile;
  invalid.pattern_items = profile.num_items;  // blocks overflow the universe
  EXPECT_FALSE(WriteScaleItemData(invalid, a).ok());
}

/// The named profiles are bench contracts: their shapes (and the derived
/// minsup) feed committed BENCH_scale.json baselines, so a silent edit
/// here would invalidate the recorded digests.
TEST(ScaleProfileTest, NamedProfileShapes) {
  const ScaleProfile full = ScaleProfile::Full();
  EXPECT_EQ(full.name, "scale-full");
  EXPECT_EQ(full.rows, 100000u);
  EXPECT_EQ(full.num_items, 10000u);
  EXPECT_EQ(full.seed, 2005u);

  const ScaleProfile reduced = ScaleProfile::Reduced();
  EXPECT_EQ(reduced.name, "scale-reduced");
  EXPECT_EQ(reduced.rows, 8000u);
  EXPECT_EQ(reduced.num_items, 2000u);

  const ScaleProfile micro = ScaleProfile::Micro();
  EXPECT_EQ(micro.name, "scale-micro");
  EXPECT_LT(micro.rows, reduced.rows);

  // Pattern blocks must fit each profile's universe (the same invariant
  // WriteScaleItemData enforces), and the derived minsup stays sane:
  // at least the floor of 2, at most the positive-row count.
  for (const ScaleProfile& p : {full, reduced, micro}) {
    EXPECT_LE(uint64_t{p.patterns} * p.pattern_items, p.num_items) << p.name;
    const uint32_t minsup = p.SuggestedMinSupport();
    EXPECT_GE(minsup, 2u) << p.name;
    EXPECT_LE(minsup, p.rows) << p.name;
  }
}

TEST(ScaleProfileTest, WriteRejectsDegenerateInputs) {
  const std::string path = TempPath("scale_profile", "reject.items");
  ScaleProfile empty = ScaleProfile::Micro();
  empty.rows = 0;
  EXPECT_FALSE(WriteScaleItemData(empty, path).ok());

  ScaleProfile no_patterns = ScaleProfile::Micro();
  no_patterns.patterns = 0;
  EXPECT_FALSE(WriteScaleItemData(no_patterns, path).ok());

  // Unwritable destination surfaces as IOError, not a partial file.
  ScaleProfile ok = ScaleProfile::Micro();
  ok.rows = 5;
  auto status = WriteScaleItemData(ok, "/nonexistent-dir/x.items");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace topkrgs
