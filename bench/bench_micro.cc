// Micro benchmarks (google-benchmark) for the substrates the miners run on:
// bitset set algebra, prefix tree construction and projection, transposed
// table projection, entropy discretization and single-item closure.

#include <benchmark/benchmark.h>

#include "topkrgs/topkrgs.h"
#include "mine/projection.h"
#include "util/bitkernels.h"
#include "util/rowset.h"

namespace topkrgs {
namespace {

Bitset RandomBits(Rng& rng, size_t size, size_t bits) {
  Bitset b(size);
  for (size_t i = 0; i < bits; ++i) b.Set(rng.NextBounded(size));
  return b;
}

void BM_BitsetIntersectCount(benchmark::State& state) {
  Rng rng(1);
  const size_t size = static_cast<size_t>(state.range(0));
  Bitset a = RandomBits(rng, size, size / 4);
  Bitset b = RandomBits(rng, size, size / 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectCount(b));
  }
}
BENCHMARK(BM_BitsetIntersectCount)->Arg(1024)->Arg(8192)->Arg(16384);

void BM_BitsetIsSubsetOf(benchmark::State& state) {
  Rng rng(2);
  const size_t size = static_cast<size_t>(state.range(0));
  Bitset big = RandomBits(rng, size, size / 2);
  Bitset small = big;
  // Remove half the elements so the subset test succeeds (worst case: a
  // full scan without early exit).
  size_t removed = 0;
  small.ForEach([&](size_t i) {
    if (++removed % 2 == 0) small.Reset(i);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.IsSubsetOf(big));
  }
}
BENCHMARK(BM_BitsetIsSubsetOf)->Arg(1024)->Arg(8192)->Arg(16384);

// Same op as BM_BitsetIntersectCount but pinned to one kernel tier, so a
// benchmark diff shows what the dispatch actually buys on this machine.
// The "/0" variant is the blocked scalar reference; higher indices are the
// SIMD tiers when the CPU has them (skipped otherwise).
void BM_KernelAndPopcount(benchmark::State& state) {
  const bitkernels::Kernels* tiers[] = {
      &bitkernels::ScalarKernels(), bitkernels::Avx2Kernels(),
      bitkernels::Avx512Kernels()};
  const auto* k = tiers[state.range(1)];
  if (k == nullptr) {
    state.SkipWithError("SIMD tier unavailable on this CPU");
    return;
  }
  Rng rng(3);
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitset a = RandomBits(rng, bits, bits / 4);
  Bitset b = RandomBits(rng, bits, bits / 4);
  const size_t words = (bits + 63) / 64;
  std::vector<uint64_t> wa(words), wb(words);
  for (size_t i = 0; i < bits; ++i) {
    if (a.Test(i)) wa[i / 64] |= uint64_t{1} << (i % 64);
    if (b.Test(i)) wb[i / 64] |= uint64_t{1} << (i % 64);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->and_popcount(wa.data(), wb.data(), words));
  }
  state.SetLabel(k->name);
}
BENCHMARK(BM_KernelAndPopcount)
    ->ArgsProduct({{4096, 16384}, {0, 1, 2}});

// Sorted-id intersection at the skew where RowSet keeps projections sparse:
// a small antecedent row list probed against a long item row list.
void BM_SortedIntersectCount(benchmark::State& state) {
  Rng rng(4);
  const size_t universe = 65536;
  const size_t small_n = static_cast<size_t>(state.range(0));
  Bitset small_bits = RandomBits(rng, universe, small_n);
  Bitset big_bits = RandomBits(rng, universe, universe / 8);
  const std::vector<uint32_t> a = small_bits.ToVector();
  const std::vector<uint32_t> b = big_bits.ToVector();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sorted::IntersectCount(a.data(), a.size(), b.data(), b.size()));
  }
}
BENCHMARK(BM_SortedIntersectCount)->Arg(64)->Arg(512)->Arg(4096);

// The adaptive projection step the miner runs per tree edge: intersect the
// current row set with an item's row bitset, re-choosing representation.
void BM_RowSetIntersectAdaptive(benchmark::State& state) {
  Rng rng(5);
  const size_t universe = 8192;
  const size_t count = static_cast<size_t>(state.range(0));
  RowSet rows = RowSet::FromBitset(RandomBits(rng, universe, count));
  Bitset item_rows = RandomBits(rng, universe, universe / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rows.IntersectAdaptive(item_rows));
  }
  state.SetLabel(rows.is_sparse() ? "sparse" : "dense");
}
BENCHMARK(BM_RowSetIntersectAdaptive)->Arg(16)->Arg(4096);

DiscreteDataset MakeMiningData(uint32_t rows, uint32_t items, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ItemId>> r(rows);
  std::vector<ClassLabel> labels(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    for (ItemId item = 0; item < items; ++item) {
      if (rng.NextBool(0.4)) r[i].push_back(item);
    }
    labels[i] = rng.NextBool(0.5) ? 1 : 0;
  }
  return DiscreteDataset(items, std::move(r), std::move(labels));
}

void BM_PrefixTreeBuild(benchmark::State& state) {
  const uint32_t rows = static_cast<uint32_t>(state.range(0));
  DiscreteDataset data = MakeMiningData(rows, 512, 3);
  const Bitset all = Bitset::AllSet(data.num_items());
  std::vector<RowId> order(rows);
  for (uint32_t i = 0; i < rows; ++i) order[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrefixTree::BuildRoot(data, order, all));
  }
}
BENCHMARK(BM_PrefixTreeBuild)->Arg(32)->Arg(128)->Arg(210);

void BM_PrefixTreeConditional(benchmark::State& state) {
  const uint32_t rows = static_cast<uint32_t>(state.range(0));
  DiscreteDataset data = MakeMiningData(rows, 512, 4);
  const Bitset all = Bitset::AllSet(data.num_items());
  std::vector<RowId> order(rows);
  for (uint32_t i = 0; i < rows; ++i) order[i] = i;
  PrefixTree tree = PrefixTree::BuildRoot(data, order, all);
  uint32_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Conditional(pos));
    pos = (pos + 1) % (rows / 2);
  }
}
BENCHMARK(BM_PrefixTreeConditional)->Arg(32)->Arg(128)->Arg(210);

void BM_VectorProjectionChild(benchmark::State& state) {
  const uint32_t rows = static_cast<uint32_t>(state.range(0));
  DiscreteDataset data = MakeMiningData(rows, 512, 5);
  const Bitset all = Bitset::AllSet(data.num_items());
  std::vector<RowId> order(rows);
  for (uint32_t i = 0; i < rows; ++i) order[i] = i;
  VectorProjection proj(&data, &order, all);
  uint32_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proj.Child(pos));
    pos = (pos + 1) % (rows / 2);
  }
}
BENCHMARK(BM_VectorProjectionChild)->Arg(32)->Arg(128)->Arg(210);

/// Tiny(6) with `genes` genes and `rows` training rows in Tiny's 12:10
/// class ratio (Tiny's own 22 rows at rows = 22).
GeneratedData FitData(uint32_t genes, uint32_t rows) {
  DatasetProfile profile = DatasetProfile::Tiny(6);
  profile.num_genes = genes;
  profile.strong_genes = profile.num_genes / 16;
  profile.weak_genes = profile.num_genes / 4;
  profile.train_class0 = rows * 10 / 22;
  profile.train_class1 = rows - profile.train_class0;
  return GenerateMicroarray(profile);
}

// Args: genes, training rows. The 210- and 600-row points sit on both
// sides of the entropy-term table's 256-row bound, so a slowdown of the
// directly computed terms shows.
void BM_EntropyDiscretizerFit(benchmark::State& state) {
  GeneratedData data = FitData(static_cast<uint32_t>(state.range(0)),
                               static_cast<uint32_t>(state.range(1)));
  EntropyDiscretizer disc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disc.Fit(data.train));
  }
}
BENCHMARK(BM_EntropyDiscretizerFit)
    ->Args({256, 22})
    ->Args({1024, 22})
    ->Args({4096, 22})
    ->Args({4096, 210})
    ->Args({4096, 600});

// One gene score (sort + boundary scan) per iteration at OC's 210 rows.
void BM_BestSplitInfoGain(benchmark::State& state) {
  GeneratedData data = FitData(1024, static_cast<uint32_t>(state.range(0)));
  const ContinuousDataset& train = data.train;
  std::vector<std::vector<double>> columns;
  for (GeneId g = 0; g < train.num_genes(); ++g) {
    columns.push_back(train.GeneColumn(g));
  }
  std::vector<uint8_t> labels(train.num_rows());
  for (RowId r = 0; r < train.num_rows(); ++r) labels[r] = train.label(r);
  size_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BestSplitInfoGain(columns[g], labels, train.num_classes()));
    g = (g + 1) % columns.size();
  }
}
BENCHMARK(BM_BestSplitInfoGain)->Arg(210);

void BM_CloseItemset(benchmark::State& state) {
  DiscreteDataset data = MakeMiningData(128, 1024, 7);
  Bitset seed(data.num_items());
  seed.Set(3);
  seed.Set(700);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CloseItemset(data, seed, 1));
  }
}
BENCHMARK(BM_CloseItemset);

void BM_MineTopkRgsTiny(benchmark::State& state) {
  GeneratedData data = GenerateMicroarray(DatasetProfile::Tiny(8));
  Pipeline p = PreparePipeline(data.train, data.test);
  TopkMinerOptions opt;
  opt.k = static_cast<uint32_t>(state.range(0));
  opt.min_support = MinSupportFromFrac(0.7, p.train.ClassCounts()[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineTopkRGS(p.train, 1, opt));
  }
}
BENCHMARK(BM_MineTopkRgsTiny)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace topkrgs

BENCHMARK_MAIN();
