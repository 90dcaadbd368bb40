#include "cli/commands.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "classify/cba.h"
#include "classify/cross_validation.h"
#include "classify/evaluator.h"
#include "classify/model_io.h"
#include "classify/rcbt.h"
#include "cli/flags.h"
#include "mine/carpenter.h"
#include "mine/charm.h"
#include "mine/closet.h"
#include "mine/farmer.h"
#include "mine/miner_common.h"
#include "mine/topk_miner.h"
#include "scale/mmap_dataset.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "scale/topk_merge.h"
#include "synth/generator.h"
#include "util/safe_math.h"

namespace topkrgs {

namespace {

StatusOr<DatasetProfile> ProfileByName(const std::string& name) {
  if (name == "ALL") return DatasetProfile::ALL();
  if (name == "LC") return DatasetProfile::LC();
  if (name == "OC") return DatasetProfile::OC();
  if (name == "PC") return DatasetProfile::PC();
  if (name == "TINY") return DatasetProfile::Tiny(7);
  return Status::InvalidArgument("unknown profile '" + name +
                                 "' (ALL, LC, OC, PC, TINY)");
}

/// CLI int64 flag -> uint32 option field, clamped below at `floor`. The
/// flag layer parses into int64; every narrowing into a miner/planner
/// option goes through CheckedCast so an oversized value is a flag error,
/// not a silent truncation (a --k of 2^32+5 used to mine with k=5).
StatusOr<uint32_t> FlagU32(int64_t value, int64_t floor, const char* what) {
  return CheckedCast<uint32_t>(std::max(floor, value), what);
}

/// Resolves --minsup / --minsup-frac against the consequent class size.
StatusOr<uint32_t> ResolveMinsup(const FlagParser& flags,
                                 uint32_t class_rows) {
  auto minsup = flags.GetInt("minsup", 0);
  if (!minsup.ok()) return minsup.status();
  auto frac = flags.GetDouble("minsup-frac", 0.7);
  if (!frac.ok()) return frac.status();
  if (minsup.value() > 0) {
    return CheckedCast<uint32_t>(minsup.value(), "--minsup");
  }
  if (frac.value() <= 0.0 || frac.value() > 1.0) {
    return Status::InvalidArgument("--minsup-frac must be in (0, 1]");
  }
  return MinSupportFromFrac(frac.value(), class_rows);
}

void PrintRuleGroup(const Pipeline& pipeline, const ContinuousDataset& raw,
                    const RuleGroup& group, size_t max_items) {
  std::string antecedent;
  size_t printed = 0;
  group.antecedent.ForEach([&](size_t item) {
    if (printed >= max_items) return;
    if (!antecedent.empty()) antecedent += " AND ";
    // NOLINT(cast: ForEach yields bit positions < num_items, a uint32)
    const auto id = static_cast<ItemId>(item);
    antecedent += pipeline.discretization.ItemName(raw, id);
    ++printed;
  });
  const size_t total = group.antecedent.Count();
  if (total > max_items) {
    antecedent += " AND ... (" + std::to_string(total - max_items) + " more)";
  }
  std::printf("  IF %s THEN class %d  (sup %u, conf %.1f%%)\n",
              antecedent.c_str(), int{group.consequent},
              group.support, 100.0 * group.confidence());
}

}  // namespace

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kNotFound:
      return 3;
    case StatusCode::kIOError:
      return 4;
    case StatusCode::kOutOfRange:
      return 5;
    case StatusCode::kFailedPrecondition:
      return 6;
    case StatusCode::kTimeout:
      return 7;
    case StatusCode::kResourceExhausted:
      return 8;
    case StatusCode::kDeadlineExceeded:
      return 9;
  }
  return 1;
}

Status RunGenerateCommand(const std::vector<std::string>& args) {
  auto flags_or = FlagParser::Parse(args);
  if (!flags_or.ok()) return flags_or.status();
  const FlagParser& flags = flags_or.value();
  TOPKRGS_RETURN_NOT_OK(
      flags.CheckKnown({"profile", "seed", "train", "test"}));

  auto profile_or = ProfileByName(flags.GetString("profile", "TINY"));
  if (!profile_or.ok()) return profile_or.status();
  DatasetProfile profile = profile_or.value();
  auto seed = flags.GetInt("seed", static_cast<int64_t>(profile.seed));
  if (!seed.ok()) return seed.status();
  profile.seed = static_cast<uint64_t>(seed.value());

  auto train_path = flags.GetRequired("train");
  if (!train_path.ok()) return train_path.status();

  GeneratedData data = GenerateMicroarray(profile);
  TOPKRGS_RETURN_NOT_OK(data.train.WriteTsv(train_path.value()));
  std::printf("wrote %u train rows x %u genes to %s\n", data.train.num_rows(),
              data.train.num_genes(), train_path.value().c_str());
  if (flags.Has("test")) {
    const std::string test_path = flags.GetString("test", "");
    TOPKRGS_RETURN_NOT_OK(data.test.WriteTsv(test_path));
    std::printf("wrote %u test rows to %s\n", data.test.num_rows(),
                test_path.c_str());
  }
  return Status::OK();
}

Status RunMineCommand(const std::vector<std::string>& args) {
  auto flags_or = FlagParser::Parse(args);
  if (!flags_or.ok()) return flags_or.status();
  const FlagParser& flags = flags_or.value();
  TOPKRGS_RETURN_NOT_OK(flags.CheckKnown({"data", "algorithm", "consequent",
                                          "minsup", "minsup-frac", "k",
                                          "minconf", "budget",
                                          "max-print"}));

  auto data_path = flags.GetRequired("data");
  if (!data_path.ok()) return data_path.status();
  auto raw_or = ContinuousDataset::ReadTsv(data_path.value());
  if (!raw_or.ok()) return raw_or.status();
  const ContinuousDataset& raw = raw_or.value();

  Pipeline pipeline = PreparePipeline(raw, raw);
  const DiscreteDataset& data = pipeline.train;

  auto consequent = flags.GetInt("consequent", 1);
  if (!consequent.ok()) return consequent.status();
  if (consequent.value() < 0 || consequent.value() >= data.num_classes()) {
    return Status::InvalidArgument("--consequent out of range");
  }
  // NOLINT(cast: < num_classes <= kMaxClasses = 256 checked above)
  const ClassLabel cls = static_cast<ClassLabel>(consequent.value());
  const uint32_t class_rows = data.ClassCounts()[cls];
  if (class_rows == 0) {
    return Status::InvalidArgument("no rows of the requested class");
  }
  auto minsup = ResolveMinsup(flags, class_rows);
  if (!minsup.ok()) return minsup.status();
  auto k = flags.GetInt("k", 5);
  if (!k.ok()) return k.status();
  auto minconf = flags.GetDouble("minconf", 0.9);
  if (!minconf.ok()) return minconf.status();
  auto budget = flags.GetDouble("budget", 30.0);
  if (!budget.ok()) return budget.status();
  auto max_print = flags.GetInt("max-print", 10);
  if (!max_print.ok()) return max_print.status();

  std::printf("dataset: %u rows, %u items (%u genes selected); class %d has "
              "%u rows; minsup %u\n",
              data.num_rows(), data.num_items(),
              pipeline.discretization.num_selected_genes(),
              int{cls}, class_rows, minsup.value());

  const std::string algorithm = flags.GetString("algorithm", "topk");
  std::vector<RuleGroupPtr> to_print;
  MinerStats stats;
  if (algorithm == "topk") {
    TopkMinerOptions opt;
    auto k32 = FlagU32(k.value(), 1, "--k");
    if (!k32.ok()) return k32.status();
    opt.k = k32.value();
    opt.min_support = minsup.value();
    opt.deadline = Deadline(budget.value());
    const TopkResult result = MineTopkRGS(data, cls, opt);
    stats = result.stats;
    to_print = result.DistinctGroups();
    std::printf("top-%u covering rule groups: %zu distinct groups\n", opt.k,
                to_print.size());
  } else if (algorithm == "farmer" || algorithm == "charm" ||
             algorithm == "closet") {
    MiningResult result;
    if (algorithm == "farmer") {
      FarmerOptions opt;
      opt.min_support = minsup.value();
      opt.min_confidence = minconf.value();
      opt.deadline = Deadline(budget.value());
      result = MineFarmer(data, cls, opt);
    } else if (algorithm == "charm") {
      CharmOptions opt;
      opt.min_support = minsup.value();
      opt.deadline = Deadline(budget.value());
      result = MineCharm(data, cls, opt);
    } else {
      ClosetOptions opt;
      opt.min_support = minsup.value();
      opt.deadline = Deadline(budget.value());
      result = MineCloset(data, cls, opt);
    }
    stats = result.stats;
    std::printf("%s found %zu rule groups%s\n", algorithm.c_str(),
                result.groups.size(),
                result.stats.timed_out ? " (budget hit; partial)" : "");
    std::sort(result.groups.begin(), result.groups.end(),
              [](const RuleGroup& a, const RuleGroup& b) {
                return CompareSignificance(a.support, a.antecedent_support,
                                           b.support, b.antecedent_support) > 0;
              });
    for (const RuleGroup& g : result.groups) {
      to_print.push_back(std::make_shared<const RuleGroup>(g));
      // max(0, ·): a negative --max-print must clamp, not wrap to SIZE_MAX.
      if (to_print.size() >=
          static_cast<size_t>(std::max<int64_t>(0, max_print.value()))) {
        break;
      }
    }
  } else if (algorithm == "carpenter") {
    CarpenterOptions opt;
    opt.min_support = minsup.value();
    opt.deadline = Deadline(budget.value());
    const CarpenterResult result = MineCarpenter(data, opt);
    std::printf("carpenter found %zu closed patterns%s (class-agnostic)\n",
                result.patterns.size(),
                result.stats.timed_out ? " (budget hit; partial)" : "");
    std::printf("search: %llu nodes in %.3fs\n",
                static_cast<unsigned long long>(result.stats.nodes_visited),
                result.stats.seconds);
    return Status::OK();
  } else {
    return Status::InvalidArgument("unknown --algorithm '" + algorithm + "'");
  }

  const size_t limit =
      std::min<size_t>(to_print.size(),
                       static_cast<size_t>(std::max<int64_t>(0, max_print.value())));
  for (size_t i = 0; i < limit; ++i) {
    PrintRuleGroup(pipeline, raw, *to_print[i], 4);
  }
  std::printf("search: %llu nodes, %llu cut rows scanned in %.3fs%s\n",
              static_cast<unsigned long long>(stats.nodes_visited),
              static_cast<unsigned long long>(stats.cut_rows_scanned),
              stats.seconds, stats.timed_out ? " (budget hit)" : "");
  return Status::OK();
}

Status RunClassifyCommand(const std::vector<std::string>& args) {
  auto flags_or = FlagParser::Parse(args);
  if (!flags_or.ok()) return flags_or.status();
  const FlagParser& flags = flags_or.value();
  TOPKRGS_RETURN_NOT_OK(flags.CheckKnown(
      {"train", "test", "model", "k", "nl", "minsup-frac", "save-model",
       "save-discretization", "load-model", "load-discretization"}));

  auto test_path = flags.GetRequired("test");
  if (!test_path.ok()) return test_path.status();
  auto test_or = ContinuousDataset::ReadTsv(test_path.value());
  if (!test_or.ok()) return test_or.status();
  const ContinuousDataset& test_raw = test_or.value();

  const std::string model_kind = flags.GetString("model", "rcbt");
  if (model_kind != "rcbt" && model_kind != "cba") {
    return Status::InvalidArgument("--model must be rcbt or cba");
  }

  if (flags.Has("load-model")) {
    // Apply a persisted model: needs the matching discretization.
    auto disc_path = flags.GetRequired("load-discretization");
    if (!disc_path.ok()) return disc_path.status();
    auto disc_or = LoadDiscretization(disc_path.value());
    if (!disc_or.ok()) return disc_or.status();
    // A loaded discretization is untrusted relative to the test matrix: it
    // may reference genes the matrix does not have. Gate before Apply.
    TOPKRGS_RETURN_NOT_OK(disc_or.value().CheckCompatible(test_raw));
    const DiscreteDataset test = disc_or.value().Apply(test_raw);

    const std::string model_path = flags.GetString("load-model", "");
    // Rule antecedents and discretized rows must live in the same item
    // universe; mismatched files would hit the bitset universe-mismatch
    // abort inside Predict, so reject the pair up front.
    const auto check_universe = [&](uint32_t model_items) {
      if (model_items != disc_or.value().num_items()) {
        return Status::FailedPrecondition(
            "model expects " + std::to_string(model_items) +
            " items but the discretization defines " +
            std::to_string(disc_or.value().num_items()));
      }
      return Status::OK();
    };
    EvalOutcome eval;
    if (model_kind == "rcbt") {
      uint32_t model_items = 0;
      auto model_or = LoadRcbtClassifier(model_path, &model_items);
      if (!model_or.ok()) return model_or.status();
      TOPKRGS_RETURN_NOT_OK(check_universe(model_items));
      const RcbtClassifier& clf = model_or.value();
      eval = EvaluateDiscrete(test, [&](const Bitset& items, bool* dflt) {
        const auto pred = clf.Predict(items);
        *dflt = pred.used_default;
        return pred.label;
      });
    } else {
      uint32_t model_items = 0;
      auto model_or = LoadCbaClassifier(model_path, &model_items);
      if (!model_or.ok()) return model_or.status();
      TOPKRGS_RETURN_NOT_OK(check_universe(model_items));
      const CbaClassifier& clf = model_or.value();
      eval = EvaluateDiscrete(test, [&](const Bitset& items, bool* dflt) {
        return clf.Predict(items, dflt);
      });
    }
    std::printf("%s (loaded): accuracy %.2f%% (%u/%u), default used %u\n",
                model_kind.c_str(), 100.0 * eval.accuracy(), eval.correct,
                eval.total, eval.default_used);
    return Status::OK();
  }

  auto train_path = flags.GetRequired("train");
  if (!train_path.ok()) return train_path.status();
  auto train_or = ContinuousDataset::ReadTsv(train_path.value());
  if (!train_or.ok()) return train_or.status();
  if (train_or.value().num_genes() != test_raw.num_genes()) {
    return Status::FailedPrecondition(
        "train has " + std::to_string(train_or.value().num_genes()) +
        " genes but test has " + std::to_string(test_raw.num_genes()));
  }

  Pipeline pipeline = PreparePipeline(train_or.value(), test_raw);
  auto frac = flags.GetDouble("minsup-frac", 0.7);
  if (!frac.ok()) return frac.status();
  auto k = flags.GetInt("k", 10);
  if (!k.ok()) return k.status();
  auto nl = flags.GetInt("nl", 20);
  if (!nl.ok()) return nl.status();

  auto k32 = FlagU32(k.value(), 1, "--k");
  if (!k32.ok()) return k32.status();
  auto nl32 = FlagU32(nl.value(), 1, "--nl");
  if (!nl32.ok()) return nl32.status();

  EvalOutcome eval;
  if (model_kind == "rcbt") {
    RcbtOptions opt;
    opt.k = k32.value();
    opt.nl = nl32.value();
    opt.min_support_frac = frac.value();
    opt.item_scores = pipeline.item_scores;
    RcbtClassifier clf = RcbtClassifier::Train(pipeline.train, opt);
    eval = EvaluateDiscrete(pipeline.test, [&](const Bitset& items, bool* d) {
      const auto pred = clf.Predict(items);
      *d = pred.used_default;
      return pred.label;
    });
    if (flags.Has("save-model")) {
      TOPKRGS_RETURN_NOT_OK(SaveRcbtClassifier(
          clf, pipeline.train.num_items(), flags.GetString("save-model", "")));
    }
  } else {
    CbaOptions opt;
    opt.min_support_frac = frac.value();
    opt.item_scores = pipeline.item_scores;
    CbaClassifier clf = TrainCba(pipeline.train, opt);
    eval = EvaluateDiscrete(pipeline.test, [&](const Bitset& items, bool* d) {
      return clf.Predict(items, d);
    });
    if (flags.Has("save-model")) {
      TOPKRGS_RETURN_NOT_OK(SaveCbaClassifier(
          clf, pipeline.train.num_items(), flags.GetString("save-model", "")));
    }
  }
  if (flags.Has("save-discretization")) {
    TOPKRGS_RETURN_NOT_OK(SaveDiscretization(
        pipeline.discretization, flags.GetString("save-discretization", "")));
  }
  std::printf("%s: accuracy %.2f%% (%u/%u), default used %u (%u errors)\n",
              model_kind.c_str(), 100.0 * eval.accuracy(), eval.correct,
              eval.total, eval.default_used, eval.default_errors);
  return Status::OK();
}

Status RunCvCommand(const std::vector<std::string>& args) {
  auto flags_or = FlagParser::Parse(args);
  if (!flags_or.ok()) return flags_or.status();
  const FlagParser& flags = flags_or.value();
  TOPKRGS_RETURN_NOT_OK(flags.CheckKnown(
      {"data", "model", "folds", "seed", "k", "nl", "minsup-frac"}));

  auto data_path = flags.GetRequired("data");
  if (!data_path.ok()) return data_path.status();
  auto raw_or = ContinuousDataset::ReadTsv(data_path.value());
  if (!raw_or.ok()) return raw_or.status();

  const std::string model_kind = flags.GetString("model", "rcbt");
  if (model_kind != "rcbt" && model_kind != "cba") {
    return Status::InvalidArgument("--model must be rcbt or cba");
  }
  auto folds = flags.GetInt("folds", 5);
  if (!folds.ok()) return folds.status();
  if (folds.value() < 2) {
    return Status::InvalidArgument("--folds must be >= 2");
  }
  auto seed = flags.GetInt("seed", 1);
  if (!seed.ok()) return seed.status();
  auto frac = flags.GetDouble("minsup-frac", 0.7);
  if (!frac.ok()) return frac.status();
  auto k = flags.GetInt("k", 10);
  if (!k.ok()) return k.status();
  auto nl = flags.GetInt("nl", 20);
  if (!nl.ok()) return nl.status();
  auto k32 = FlagU32(k.value(), 1, "--k");
  if (!k32.ok()) return k32.status();
  auto nl32 = FlagU32(nl.value(), 1, "--nl");
  if (!nl32.ok()) return nl32.status();
  auto folds32 = FlagU32(folds.value(), 2, "--folds");
  if (!folds32.ok()) return folds32.status();

  // Fold over the RAW data and refit the discretization inside every fold:
  // fitting cuts on all rows before splitting would leak the held-out
  // labels into the item definitions.
  const ContinuousDataset& raw = raw_or.value();
  std::vector<ClassLabel> labels(raw.num_rows());
  for (RowId r = 0; r < raw.num_rows(); ++r) labels[r] = raw.label(r);
  const auto fold_of = StratifiedFolds(
      labels, folds32.value(), static_cast<uint64_t>(seed.value()));

  CrossValidationResult result;
  for (uint32_t fold = 0; fold < folds.value(); ++fold) {
    ContinuousDataset train(raw.num_genes());
    ContinuousDataset test(raw.num_genes());
    std::vector<double> row(raw.num_genes());
    for (RowId r = 0; r < raw.num_rows(); ++r) {
      for (GeneId g = 0; g < raw.num_genes(); ++g) row[g] = raw.value(r, g);
      (fold_of[r] == fold ? test : train).AddRow(row, raw.label(r));
    }
    if (train.num_rows() == 0 || test.num_rows() == 0) {
      result.folds.push_back(EvalOutcome{});
      continue;
    }
    Pipeline pipeline = PreparePipeline(train, test);
    EvalOutcome eval;
    if (model_kind == "rcbt") {
      RcbtOptions opt;
      opt.k = k32.value();
      opt.nl = nl32.value();
      opt.min_support_frac = frac.value();
      opt.item_scores = pipeline.item_scores;
      RcbtClassifier clf = RcbtClassifier::Train(pipeline.train, opt);
      eval = EvaluateDiscrete(pipeline.test,
                              [&](const Bitset& items, bool* dflt) {
                                const auto pred = clf.Predict(items);
                                *dflt = pred.used_default;
                                return pred.label;
                              });
    } else {
      CbaOptions opt;
      opt.min_support_frac = frac.value();
      opt.item_scores = pipeline.item_scores;
      CbaClassifier clf = TrainCba(pipeline.train, opt);
      eval = EvaluateDiscrete(pipeline.test,
                              [&](const Bitset& items, bool* dflt) {
                                return clf.Predict(items, dflt);
                              });
    }
    std::printf("fold %u: %.2f%% (%u/%u)\n", fold, 100.0 * eval.accuracy(),
                eval.correct, eval.total);
    result.folds.push_back(eval);
  }
  std::printf("%s %lld-fold CV: mean %.2f%%, pooled %.2f%%\n",
              model_kind.c_str(), static_cast<long long>(folds.value()),
              100.0 * result.mean_accuracy(),
              100.0 * result.pooled_accuracy());
  return Status::OK();
}

Status RunConvertCommand(const std::vector<std::string>& args) {
  auto flags_or = FlagParser::Parse(args);
  if (!flags_or.ok()) return flags_or.status();
  const FlagParser& flags = flags_or.value();
  TOPKRGS_RETURN_NOT_OK(
      flags.CheckKnown({"input", "output", "num-items", "chunk-bytes"}));

  auto input = flags.GetRequired("input");
  if (!input.ok()) return input.status();
  auto output = flags.GetRequired("output");
  if (!output.ok()) return output.status();
  auto num_items = flags.GetInt("num-items", 0);
  if (!num_items.ok()) return num_items.status();
  if (num_items.value() < 0) {
    return Status::InvalidArgument("--num-items must be >= 0 (0 = infer)");
  }
  auto chunk_bytes = flags.GetInt("chunk-bytes", 1 << 20);
  if (!chunk_bytes.ok()) return chunk_bytes.status();
  if (chunk_bytes.value() < 1) {
    return Status::InvalidArgument("--chunk-bytes must be >= 1");
  }

  StreamReader::Options options;
  // CheckedCast handles the signed int64 directly — the old path cast to
  // uint64 first, so a (rejected-above) negative would have slipped past
  // the index bound as a huge unsigned value.
  auto declared = CheckedCast<uint32_t>(num_items.value(), "--num-items");
  if (!declared.ok()) return declared.status();
  options.num_items = declared.value();
  options.chunk_bytes = static_cast<size_t>(chunk_bytes.value());
  auto table_or = StreamReader::ReadItemData(input.value(), options);
  if (!table_or.ok()) return table_or.status();
  const StreamedTable& table = table_or.value();

  TOPKRGS_RETURN_NOT_OK(WriteTkds(table, output.value()));
  auto mapped_or = MmapDataset::Open(output.value());  // verify what we wrote
  if (!mapped_or.ok()) return mapped_or.status();
  std::printf("%s: %u rows, %u items, %llu entries -> %s (%zu bytes)\n",
              input.value().c_str(), table.num_rows(), table.num_items(),
              static_cast<unsigned long long>(table.nnz()),
              output.value().c_str(), mapped_or.value().mapped_bytes());
  return Status::OK();
}

Status RunShardMineCommand(const std::vector<std::string>& args) {
  auto flags_or = FlagParser::Parse(args);
  if (!flags_or.ok()) return flags_or.status();
  const FlagParser& flags = flags_or.value();
  TOPKRGS_RETURN_NOT_OK(flags.CheckKnown(
      {"data", "consequent", "minsup", "minsup-frac", "k", "memory-budget",
       "shards", "budget", "max-print"}));

  auto data_path = flags.GetRequired("data");
  if (!data_path.ok()) return data_path.status();

  // tkds files are detected by extension; anything else streams as
  // item-data text. Both end in the same TransposedView.
  MmapDataset mapped;
  StreamedTable streamed;
  TransposedView view;
  const std::string& path = data_path.value();
  const bool is_tkds =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".tkds") == 0;
  if (is_tkds) {
    auto mapped_or = MmapDataset::Open(path);
    if (!mapped_or.ok()) return mapped_or.status();
    mapped = std::move(mapped_or).value();
    view = mapped.View();
  } else {
    auto table_or = StreamReader::ReadItemData(path);
    if (!table_or.ok()) return table_or.status();
    streamed = std::move(table_or).value();
    view = streamed.View();
  }

  auto consequent = flags.GetInt("consequent", 1);
  if (!consequent.ok()) return consequent.status();
  if (consequent.value() < 0 || consequent.value() >= view.num_classes) {
    return Status::InvalidArgument("--consequent out of range");
  }
  // NOLINT(cast: < num_classes <= kMaxClasses = 256 checked above)
  const ClassLabel cls = static_cast<ClassLabel>(consequent.value());
  uint32_t class_rows = 0;
  for (uint32_t r = 0; r < view.num_rows; ++r) {
    if (view.labels[r] == cls) ++class_rows;
  }
  if (class_rows == 0) {
    return Status::InvalidArgument("no rows of the requested class");
  }
  auto minsup = ResolveMinsup(flags, class_rows);
  if (!minsup.ok()) return minsup.status();
  auto k = flags.GetInt("k", 5);
  if (!k.ok()) return k.status();
  auto memory_budget = flags.GetInt("memory-budget", 0);
  if (!memory_budget.ok()) return memory_budget.status();
  if (memory_budget.value() < 0) {
    return Status::InvalidArgument("--memory-budget must be >= 0");
  }
  auto shards = flags.GetInt("shards", 0);
  if (!shards.ok()) return shards.status();
  if (shards.value() < 0) {
    return Status::InvalidArgument("--shards must be >= 0 (0 = auto)");
  }
  auto budget = flags.GetDouble("budget", 30.0);
  if (!budget.ok()) return budget.status();
  auto max_print = flags.GetInt("max-print", 10);
  if (!max_print.ok()) return max_print.status();

  std::printf("dataset: %u rows, %u items, %llu entries; class %d has %u "
              "rows; minsup %u\n",
              view.num_rows, view.num_items,
              static_cast<unsigned long long>(view.nnz()),
              int{cls}, class_rows, minsup.value());

  ShardPlanOptions plan_opt;
  auto k32 = FlagU32(k.value(), 1, "--k");
  if (!k32.ok()) return k32.status();
  plan_opt.k = k32.value();
  plan_opt.min_support = minsup.value();
  plan_opt.memory_budget_bytes =
      static_cast<uint64_t>(memory_budget.value());
  auto shards32 = FlagU32(shards.value(), 0, "--shards");
  if (!shards32.ok()) return shards32.status();
  plan_opt.shard_count = shards32.value();
  ShardMineOptions mine_opt;
  mine_opt.deadline = Deadline(budget.value());

  ShardPlan plan;
  auto merged_or = MineShardedTopkRGS(view, cls, plan_opt, mine_opt, &plan);
  if (!merged_or.ok()) return merged_or.status();
  const MergedTopk& merged = merged_or.value();

  std::printf("plan: %zu shard(s) over %u positive rows (estimated working "
              "set ~%llu bytes%s)\n",
              plan.shards.size(), plan.positives,
              static_cast<unsigned long long>(plan.estimated_peak_bytes),
              plan_opt.memory_budget_bytes != 0 ? ", within budget" : "");
  // groups_emitted counts raw per-shard emissions (pre-merge), so like
  // nodes_visited it varies with the shard count; the digest must not.
  std::printf("merged %llu shard emissions in %.2fs; effective minsup %u; "
              "digest %016llx%s\n",
              static_cast<unsigned long long>(merged.stats.groups_emitted),
              merged.stats.seconds, merged.effective_min_support,
              static_cast<unsigned long long>(
                  TopkDigest(merged.per_row, merged.effective_min_support)),
              merged.stats.timed_out ? " (TIMED OUT — lists incomplete)" : "");

  // Top distinct groups in per-row significance order, like topkrgs-mine.
  size_t printed = 0;
  std::vector<const RuleGroup*> seen;
  for (uint32_t r = 0;
       r < view.num_rows && printed < static_cast<size_t>(std::max<int64_t>(
                                          0, max_print.value()));
       ++r) {
    for (const RuleGroupPtr& group : merged.per_row[r]) {
      if (std::find(seen.begin(), seen.end(), group.get()) != seen.end()) {
        continue;
      }
      seen.push_back(group.get());
      std::printf("  sup %u / asup %u (conf %.3f), %zu items, covers %zu "
                  "rows\n",
                  group->support, group->antecedent_support,
                  group->antecedent_support == 0
                      ? 0.0
                      : static_cast<double>(group->support) /
                            group->antecedent_support,
                  group->antecedent.Count(), group->row_support.Count());
      if (++printed >= static_cast<size_t>(std::max<int64_t>(
                           0, max_print.value()))) {
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace topkrgs
