#ifndef TOPKRGS_TOPKRGS_H_
#define TOPKRGS_TOPKRGS_H_

/// Umbrella header for the topkrgs library — a C++ implementation of
/// "Mining Top-k Covering Rule Groups for Gene Expression Data"
/// (Cong, Tan, Tung, Xu — SIGMOD 2005): the MineTopkRGS miner, the RCBT /
/// CBA / IRG classifiers, the FARMER / CHARM / CLOSET+ baselines, and the
/// preprocessing substrates (entropy-MDL discretization, synthetic
/// microarray generation), the out-of-core sharded mining engine
/// (streaming ingest, mmap datasets, deterministic top-k merge —
/// src/scale), plus the embeddable prediction-serving stack
/// (model registry, batched executor, HTTP front end — src/serve).

#include "analyze/rule_report.h"
#include "classify/cba.h"
#include "classify/cross_validation.h"
#include "classify/decision_tree.h"
#include "classify/ensemble.h"
#include "classify/evaluator.h"
#include "classify/find_lb.h"
#include "classify/irg.h"
#include "classify/model_io.h"
#include "classify/rcbt.h"
#include "classify/svm.h"
#include "core/dataset.h"
#include "core/rule.h"
#include "core/stats.h"
#include "core/types.h"
#include "discretize/binning.h"
#include "discretize/entropy_discretizer.h"
#include "mine/charm.h"
#include "mine/closet.h"
#include "mine/farmer.h"
#include "mine/miner_common.h"
#include "mine/naive_miner.h"
#include "mine/prefix_tree.h"
#include "mine/topk_miner.h"
#include "mine/transposed_table.h"
#include "scale/mmap_dataset.h"
#include "scale/shard_miner.h"
#include "scale/shard_planner.h"
#include "scale/stream_reader.h"
#include "scale/topk_merge.h"
#include "serve/executor.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "synth/scale_profile.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

#endif  // TOPKRGS_TOPKRGS_H_
