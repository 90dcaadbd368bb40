#ifndef TOPKRGS_CLI_COMMANDS_H_
#define TOPKRGS_CLI_COMMANDS_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace topkrgs {

/// The topkrgs command-line tools, exposed as Status-returning functions so
/// tests can drive them directly; each tool binary is a thin main() around
/// one of these. Output goes to stdout; `args` excludes the program name.

/// topkrgs-generate: write a synthetic microarray dataset to TSV.
///   --profile ALL|LC|OC|PC|TINY   dataset shape (default TINY)
///   --seed N                      RNG seed override
///   --train PATH (required)      training-split TSV output
///   --test PATH                  optional test-split TSV output
[[nodiscard]] Status RunGenerateCommand(const std::vector<std::string>& args);

/// topkrgs-mine: mine rule groups from a continuous TSV dataset
/// (label column + gene columns; entropy-MDL discretization is fitted on
/// the input).
///   --data PATH (required)       input TSV
///   --algorithm topk|farmer|charm|closet (default topk)
///   --consequent N               class label to mine for (default 1)
///   --minsup N | --minsup-frac F absolute or class-relative support
///                                (default --minsup-frac 0.7)
///   --k N                        covering rule groups per row (default 5)
///   --minconf F                  FARMER confidence threshold (default 0.9)
///   --budget SECONDS             wall-clock budget (default 30)
///   --max-print N                rule groups to print (default 10)
[[nodiscard]] Status RunMineCommand(const std::vector<std::string>& args);

/// topkrgs-classify: train RCBT or CBA on a training TSV, evaluate on a
/// test TSV, optionally persist/reuse the model and discretization.
///   --train PATH                 training TSV (required unless loading)
///   --test PATH (required)       test TSV
///   --model rcbt|cba             classifier (default rcbt)
///   --k N --nl N                 RCBT parameters (defaults 10 / 20)
///   --minsup-frac F              support fraction (default 0.7)
///   --save-model PATH --save-discretization PATH
///   --load-model PATH --load-discretization PATH
[[nodiscard]] Status RunClassifyCommand(const std::vector<std::string>& args);

/// topkrgs-cv: stratified k-fold cross-validation of RCBT or CBA on one
/// continuous TSV dataset (no independent test split needed).
///   --data PATH (required)       input TSV
///   --model rcbt|cba             classifier (default rcbt)
///   --folds N                    number of folds (default 5)
///   --seed N                     fold assignment seed (default 1)
///   --k N --nl N                 RCBT parameters (defaults 10 / 20)
///   --minsup-frac F              support fraction (default 0.7)
[[nodiscard]] Status RunCvCommand(const std::vector<std::string>& args);

/// topkrgs-convert: stream an item-data text file ('label<TAB>item ids'
/// lines) into the mmap-able tkds binary format without materializing the
/// row-major matrix (peak memory = transposed table + one read chunk).
///   --input PATH (required)      item-data text input
///   --output PATH (required)     tkds output
///   --num-items N                declared item universe (default 0 = infer)
///   --chunk-bytes N              read granularity (default 1 MiB)
[[nodiscard]] Status RunConvertCommand(const std::vector<std::string>& args);

/// topkrgs-shard-mine: out-of-core sharded top-k mining over a tkds file
/// (mmap, zero parse) or item-data text (streamed). Output is bit-identical
/// to single-shot MineTopkRGS for any shard count (DESIGN.md §14).
///   --data PATH (required)       .tkds binary or item-data text
///   --consequent N               class label to mine for (default 1)
///   --minsup N | --minsup-frac F absolute or class-relative support
///                                (default --minsup-frac 0.7)
///   --k N                        covering rule groups per row (default 5)
///   --memory-budget BYTES        working-set budget; 0 = unlimited; the
///                                planner errors when its estimate is
///                                above it (the budget sets no shard count)
///   --shards N                   shard count (default 0 = one shard)
///   --budget SECONDS             wall-clock budget of the whole sharded
///                                mine, all shards together (default 30)
///   --max-print N                rule groups to print (default 10)
[[nodiscard]] Status RunShardMineCommand(const std::vector<std::string>& args);

/// Maps a command Status to a process exit code so scripted callers can
/// distinguish failure modes without parsing stderr:
///   0 OK, 2 InvalidArgument (bad flags or malformed/corrupt input file),
///   3 NotFound, 4 IOError (unreadable/unwritable path), 5 OutOfRange,
///   6 FailedPrecondition (inputs valid alone but inconsistent as a pair,
///   e.g. model and discretization over different item universes),
///   7 Timeout, 8 ResourceExhausted, 9 DeadlineExceeded, 1 anything else.
/// Exit code 1 is reserved for unclassified errors so new StatusCodes never
/// silently collide with an existing meaning.
int ExitCodeForStatus(const Status& status);

}  // namespace topkrgs

#endif  // TOPKRGS_CLI_COMMANDS_H_
