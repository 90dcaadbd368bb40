#include "mine/topk_miner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "mine/topk_lists.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/hot_path.h"
#include "util/lock_ranks.h"
#include "util/rowset.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/work_steal_deque.h"

namespace topkrgs {

namespace {

/// Canonical origin of a shared-list entry: where it falls in the replay
/// (merge) order. Seeds replay first (origin 0), then the root node's
/// emissions (origin 1); the remaining origin space [2, kOriginMax) is
/// striped evenly across the first-level subtree tasks in canonical child
/// order, so task i owns the half-open range [2 + i*stride, 2 + (i+1)*
/// stride). A task emits with its range's base. Within one scheduling
/// unit, wall-clock order IS canonical order (a single worker mines a
/// unit sequentially), so comparing origins alone decides "canonically no
/// later than": ranges are disjoint and ordered, and no two units ever
/// share a base. Dynamic splitting subdivides the executing unit's
/// REMAINING range among the shed children (canonical order again) and
/// bumps the parent's own base past them — the parent's later emissions
/// are canonically after the shed subtrees, and its earlier emissions
/// kept the smaller pre-split base, so origin comparisons stay exact
/// through any nesting of splits. A split is refused when the range has
/// too few slots left (the natural fragmentation throttle). kOriginInf
/// marks an origin too large to encode: entries carrying it can never
/// justify suppressing a tie (conservative).
constexpr uint32_t kOriginMax = 0xfffeu;
constexpr uint32_t kOriginInf = 0xffffu;

/// Significance threshold (sup, antecedent_sup) with the canonical origin
/// attached: `origin` is the latest origin among the top-k entries tied
/// with the k-th (the ones a tying candidate must beat in the replay's
/// earlier-discovery tiebreak). (0, 0) is the dummy with confidence 0,
/// which every real candidate beats, so a default Thresh never prunes.
struct Thresh {
  uint32_t sup = 0;
  uint32_t asup = 0;
  uint32_t origin = kOriginInf;
};

/// Whether a candidate of significance (sup, asup) discovered at
/// `candidate_origin` can never enter a final top-k list guarded by `cut`.
/// Strictly worse always loses; an exact tie loses only to entries that
/// canonically precede it — the replay resolves ties by discovery order,
/// so a tie with a canonically-later entry must still be recorded.
inline bool Dominated(uint32_t sup, uint32_t asup, const Thresh& cut,
                      uint32_t candidate_origin) {
  const int cmp = CompareSignificance(sup, asup, cut.sup, cut.asup);
  if (cmp != 0) return cmp < 0;
  return cut.origin <= candidate_origin;
}

/// Shared pruning state of the parallel search: per-row candidate top-k
/// lists guarded by striped locks, with each row's k-th-entry significance
/// and tie origin mirrored into a packed atomic so the hot pruning reads
/// (the admission check reads one per scanned row) never take a lock. A
/// published k-th entry only ever tightens, which is what lets a caller
/// keep a cut it folded earlier (TopkSearch::Admits). The dynamically
/// raised minimum support lives here too.
///
/// This structure only steers pruning; the final per-row lists are rebuilt
/// afterwards by a deterministic replay of the recorded emissions, so the
/// timing-dependent insertion order here never leaks into results.
class SharedTopk {
 public:
  SharedTopk(uint32_t num_positions, uint32_t k, uint32_t initial_minsup)
      : k_(k),
        // Support counts must fit the 24-bit packed fields; beyond that
        // (unheard of for row enumeration) thresholds stay at the dummy and
        // top-k pruning degrades to none, which is slow but correct.
        packable_(num_positions < (1u << 24)),
        lists_(num_positions),
        packed_(num_positions),
        minsup_dyn_(initial_minsup) {
    for (auto& p : packed_) p.store(0, std::memory_order_relaxed);
  }

  /// The significance + tie origin of the k-th entry of `pos`'s list;
  /// (0, 0) while the list holds fewer than k groups (a real group always
  /// has support >= 1, so the sentinel is unambiguous). Lock-free.
  TKRGS_HOT Thresh KthOf(uint32_t pos) const {
    const uint64_t packed = packed_[pos].load(std::memory_order_acquire);
    return Thresh{static_cast<uint32_t>(packed >> 40),
                  static_cast<uint32_t>((packed >> 16) & 0xffffffu),
                  static_cast<uint32_t>(packed & 0xffffu)};
  }

  uint32_t minsup() const {
    return minsup_dyn_.load(std::memory_order_acquire);
  }

  /// Epoch stamp of the shared pruning state: bumped whenever any k-th
  /// significance is (re)published or minsup is raised. MaybeRaiseMinsup
  /// re-reads it at every enumeration node and rescans the k-th entries
  /// only on a change, so an unchanged epoch costs one atomic load.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Monotone maximum update (CAS loop). The paper's dynamic-minsup
  /// optimization (§4.1.1) is only sound because minsup never decreases
  /// during the search; the CAS loop guarantees it structurally and the
  /// DCHECK documents/verifies the contract in debug builds.
  void RaiseMinsup(uint32_t value) {
    uint32_t current = minsup_dyn_.load(std::memory_order_relaxed);
    bool raised = false;
    while (value > current) {
      if (minsup_dyn_.compare_exchange_weak(current, value,
                                            std::memory_order_acq_rel)) {
        raised = true;
        break;
      }
    }
    if (raised) epoch_.fetch_add(1, std::memory_order_release);
    TKRGS_DCHECK_GE(minsup_dyn_.load(std::memory_order_relaxed), value,
                    "dynamic minsup must be monotone non-decreasing");
  }

  /// Offers a candidate group to `pos`'s pruning list. Deduplicates by
  /// (support, antecedent support, row support) — a seed and its closure
  /// must not occupy two slots, which would fake a tighter threshold than
  /// the real list can have. Unlike the replay-side insert, a duplicate is
  /// never "upgraded" here: handles stay immutable while workers run.
  /// Duplicates keep the first arrival's origin, which is the canonically
  /// smallest one: distinct enumeration nodes emit distinct closed rowsets
  /// (and splitting only partitions nodes across tasks, never duplicates
  /// one), so the only duplicates are a single-item seed and its closure —
  /// and seeds insert with origin 0 before any worker starts.
  TKRGS_HOT void Insert(uint32_t pos, const HandlePtr& handle,
                        uint32_t origin) {
    const RuleGroup& g = handle->group;
    // lists_[pos] is guarded by stripes_[pos & (kStripes - 1)]. The
    // index-dependent stripe mapping is beyond what GUARDED_BY can
    // express, so the contract lives here (and every mutation below runs
    // under this MutexLock — the annotated type keeps the acquisition
    // visible to the analysis even without a field annotation).
    MutexLock lock(stripes_[pos & (kStripes - 1)]);
    auto& list = lists_[pos];
    for (const Entry& existing : list) {
      const RuleGroup& e = existing.handle->group;
      if (e.support == g.support &&
          e.antecedent_support == g.antecedent_support &&
          e.row_support == g.row_support) {
        return;
      }
    }
    const uint32_t encoded = origin >= kOriginMax ? kOriginInf : origin;
    if (list.size() >= k_) {
      const RuleGroup& kth = list.back().handle->group;
      const int cmp = CompareSignificance(g.support, g.antecedent_support,
                                          kth.support, kth.antecedent_support);
      if (cmp < 0) return;
      if (cmp == 0) {
        // A tie with the k-th entry can't deepen the list, but a
        // canonically EARLIER tie can sharpen the published tie-origin
        // (workers run out of canonical order, so late arrivals may
        // precede what's stored): replace the latest-origin tied entry.
        size_t worst = list.size();
        for (size_t i = list.size(); i-- > 0;) {
          const RuleGroup& e = list[i].handle->group;
          if (CompareSignificance(e.support, e.antecedent_support, kth.support,
                                  kth.antecedent_support) != 0) {
            break;
          }
          if (worst == list.size() || list[i].origin > list[worst].origin) {
            worst = i;
          }
        }
        if (worst == list.size() || list[worst].origin <= encoded) return;
        list[worst] = Entry{handle, encoded};
        PublishKth(pos);
        return;
      }
    }
    auto it = std::find_if(list.begin(), list.end(), [&](const Entry& e) {
      return CompareSignificance(g.support, g.antecedent_support,
                                 e.handle->group.support,
                                 e.handle->group.antecedent_support) > 0;
    });
    // NOLINT(hotpath: k-bounded list under the stripe lock — the insert
    // shifts at most k entries and the spill below caps growth)
    list.insert(it, Entry{handle, encoded});
    if (list.size() > k_) list.pop_back();
    if (list.size() >= k_) PublishKth(pos);
  }

 private:
  static constexpr size_t kStripes = 64;  // power of two (masked indexing)

  struct Entry {
    HandlePtr handle;
    uint32_t origin;  // encoded: >= kOriginMax is stored as kOriginInf,
                      // because the clamp value is shared by several late
                      // tasks and may never justify suppressing a tie
  };

  /// Publishes the k-th significance plus the latest origin among the
  /// top-k entries tied with it: a tying candidate is beaten only if ALL
  /// of them canonically precede it. Caller holds the stripe lock and has
  /// ensured the list is full.
  void PublishKth(uint32_t pos) {
    if (!packable_) return;
    const auto& list = lists_[pos];
    TKRGS_DCHECK_SORTED(
        list.begin(), list.end(),
        [](const Entry& a, const Entry& b) {
          return CompareSignificance(
                     a.handle->group.support, a.handle->group.antecedent_support,
                     b.handle->group.support,
                     b.handle->group.antecedent_support) > 0;
        },
        "per-row pruning list must stay sorted by significance");
    const RuleGroup& kth = list.back().handle->group;
    uint32_t tie_origin = 0;
    for (size_t i = list.size(); i-- > 0;) {
      const RuleGroup& e = list[i].handle->group;
      if (CompareSignificance(e.support, e.antecedent_support, kth.support,
                              kth.antecedent_support) != 0) {
        break;
      }
      tie_origin = std::max(tie_origin, list[i].origin);
    }
    // Top-k pruning (§4.1.1) is sound only if the published per-row
    // threshold — and with it the dynamically derived minconf — is
    // monotone non-decreasing: a threshold that ever dropped could have
    // pruned a subtree that later became viable again.
    TKRGS_DCHECK(
        [&] {
          const uint64_t prev = packed_[pos].load(std::memory_order_relaxed);
          return CompareSignificance(
                     kth.support, kth.antecedent_support,
                     static_cast<uint32_t>(prev >> 40),
                     static_cast<uint32_t>((prev >> 16) & 0xffffffu)) >= 0;
        }(),
        "published k-th significance (minconf source) must never decrease");
    packed_[pos].store(
        (static_cast<uint64_t>(kth.support) << 40) |
            (static_cast<uint64_t>(kth.antecedent_support) << 16) | tie_origin,
        std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  /// Stripe locks carry the leaf rank from the central table: nothing may
  /// be acquired under one, and (same-rank rule) no two stripes may ever
  /// be held together — both checked at runtime in debug builds.
  template <size_t... I>
  static std::array<Mutex, sizeof...(I)> MakeStripes(
      std::index_sequence<I...>) {
    return {((void)I, Mutex(lock_rank::kMinerTopkStripe,
                            "SharedTopk::stripes_"))...};
  }

  const uint32_t k_;
  const bool packable_;
  /// lists_[pos] is guarded by stripes_[pos & (kStripes - 1)] — an
  /// index-computed stripe GUARDED_BY cannot name (see Insert).
  std::vector<std::vector<Entry>> lists_;
  std::vector<std::atomic<uint64_t>> packed_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> minsup_dyn_;
  mutable std::array<Mutex, kStripes> stripes_ =
      MakeStripes(std::make_index_sequence<kStripes>{});
};

class TopkSearch {
 public:
  TopkSearch(const DiscreteDataset& data, ClassLabel consequent,
             const TopkMinerOptions& options)
      : data_(data), consequent_(consequent), opt_(options) {}

  TopkResult Run();

 private:
  /// One recorded rule-group emission: the handle plus the positive row
  /// positions it covers, in discovery (x-stack) order. Emissions are
  /// recorded per subtree task and replayed in canonical order after the
  /// workers join, which is what makes the parallel search bit-for-bit
  /// deterministic.
  struct Emission {
    HandlePtr handle;
    std::vector<uint32_t> covered;
  };

  struct SubtreeTask;
  struct NodeCtx;

  /// Sentinel for "no epoch observed yet" (forces the first minsup scan).
  static constexpr uint64_t kEpochNever = ~0ull;

  /// Per-worker DFS state: the enumeration stack and scratch buffers
  /// persist across the tasks a worker drains, so a steady-state worker
  /// stops allocating.
  struct WorkerState {
    std::vector<uint32_t> x_stack;
    std::vector<uint8_t> in_x;
    uint32_t xp = 0;
    uint32_t xn = 0;
    uint32_t depth = 0;  // branch rows from the root to the current node
    uint32_t origin = kOriginMax;        // current origin-range base
    uint32_t origin_limit = kOriginMax;  // exclusive end of the free range
    uint64_t minsup_epoch = kEpochNever;  // epoch of the last minsup scan
    uint32_t worker_index = 0;
    SubtreeTask* task = nullptr;   // the task currently executing
    // The context x_stack was last switched to, and RunTask's admission
    // cut cache over its x_stack ∪ live (see Admits). Contexts live until
    // Run returns (tasks_ and the spawned vectors own them), so the
    // pointer is never reused for another context while a worker runs.
    const NodeCtx* ctx = nullptr;
    Thresh ctx_cut;
    MinerStats stats;
    std::vector<Emission>* sink = nullptr;
    VectorPool<uint32_t> scratch;
    // Per-row postings counter of CountFreq, indexed by original row id;
    // all zero between scans (each scan resets what it set).
    std::vector<uint32_t> row_count;
    // One RowSet per enumeration depth, reused across every sibling at
    // that depth: IntersectAdaptiveInto refills the slot's id array or
    // bitmap in place, so the per-node intersection stops allocating once
    // each depth has been visited once. A deque keeps references stable
    // while deeper slots append.
    std::deque<RowSet> rowset_scratch;
  };

  /// A frozen enumeration node whose children are (or became, through a
  /// dynamic split) subtree tasks: everything a worker needs to resume any
  /// child — the DFS stack, I(X), the surviving candidates. A child's
  /// candidates are the node's live[child+1..), so a stealing worker
  /// rebuilds nothing. Immutable once published; tasks share it through a
  /// shared_ptr.
  struct NodeCtx {
    std::vector<uint32_t> x_stack;    // full stack at the node (incl. absorbed)
    uint32_t xp = 0;
    uint32_t xn = 0;
    uint32_t depth = 0;               // WorkerState::depth at the node
    RowSet items;                     // I(X) at the node (density-adaptive)
    std::vector<uint32_t> live;       // surviving candidate positions
    std::vector<uint32_t> live_freq;  // their item counts (child items_count)
    std::vector<uint32_t> suffix_pos; // positive candidates after live[i]
  };

  /// One subtree of the enumeration tree: the unit of scheduled work —
  /// child `child` of the node `ctx` describes. First-level tasks are
  /// created up front; further tasks appear when a running task sheds the
  /// unvisited children of its current node to starving workers (dynamic
  /// split). The spawn markers record WHERE in the parent's emission
  /// stream each split happened, so the replay can stitch the spawned
  /// subtrees back into canonical DFS order.
  struct SubtreeTask {
    std::shared_ptr<const NodeCtx> ctx;
    uint32_t child = 0;            // index into ctx->live
    uint32_t origin_base = 0;      // this unit's origin range [base, limit):
    uint32_t origin_limit = 0;     // emits with base, splits carve the rest
    std::vector<Emission> emissions;
    // spawned[s] replays after emissions[0 .. spawn_at[s]) — i.e. exactly
    // where its subtree sits in this task's DFS order. spawn_at is
    // non-decreasing; batches from one split share one value.
    std::vector<std::unique_ptr<SubtreeTask>> spawned;
    std::vector<size_t> spawn_at;
  };

  /// Visits node X, whose candidate rows are `cand` (ascending positions,
  /// none in X) and whose item set I(X) is `items`.
  TKRGS_HOT void Visit(WorkerState& ws, std::span<const uint32_t> cand,
                       const RowSet& items, uint32_t items_count,
                       bool closed_on_left);

  /// Step 10's scan of TT'|_X: (*freq)[i] = |I(X) ∩ items(cand[i])|,
  /// counted per candidate or from item postings, whichever
  /// CountFreqFromPostings says costs less at this node.
  TKRGS_HOT void CountFreq(WorkerState& ws, std::span<const uint32_t> cand,
                           const RowSet& items, std::vector<uint32_t>* freq);

  /// The rest of Step 10, shared by Visit and MineRoot: candidates holding
  /// all of I(X) are absorbed into X (pushed onto the DFS stack — they
  /// appear in every descendant), candidates holding part of it stay live
  /// with their counts, and suffix_pos[i] counts the positive live rows at
  /// i and after (so suffix_pos[0] is mp, the rows that can still raise a
  /// descendant's support).
  TKRGS_HOT void ScanAndAbsorb(WorkerState& ws, std::span<const uint32_t> cand,
                               const RowSet& items, uint32_t items_count,
                               std::vector<uint32_t>* absorbed,
                               std::vector<uint32_t>* live,
                               std::vector<uint32_t>* live_freq,
                               std::vector<uint32_t>* suffix_pos);

  /// Step 7's question for child X ∪ {p}, whose item set is `items`
  /// (`items_count` items): does a row at a position before p and outside
  /// X hold all of them? Rows before a shard scope are never in X, so they
  /// answer like any other earlier row. Only rows holding the rarest item
  /// can, so the check walks that item's postings instead of the p earlier
  /// rows when they are shorter; both walks stop at the first holder.
  TKRGS_HOT bool HeldEarlier(const WorkerState& ws, const RowSet& items,
                             uint32_t items_count, uint32_t p) const;

  /// Steps 7 and 14 for child X ∪ {live[i]} of the current node X: the
  /// backward check, then the descent. `items` is I(X); it must not be
  /// ws.rowset_scratch[ws.depth], the slot the child's item set goes to.
  TKRGS_HOT void Descend(WorkerState& ws, const RowSet& items,
                         std::span<const uint32_t> live, uint32_t child_count,
                         size_t i);

  /// The per-child loose bound: support below child X ∪ {p} is capped by
  /// X, the branch row p, and the `positives_after` positive candidates
  /// ordered after it. `rows` and `cut` as in Admits; the parent's rows
  /// cover every child's, so checking against them is sound.
  TKRGS_HOT bool ChildHopeless(WorkerState& ws, uint32_t p,
                               uint32_t positives_after,
                               std::span<const uint32_t> rows,
                               Thresh* cut) const {
    return Hopeless(ws, ws.xp + (IsPos(p) ? 1 : 0) + positives_after,
                    ws.xn + (IsPos(p) ? 0 : 1), rows, cut);
  }

  /// Processes the root node serially (seeding the shared thresholds with
  /// its high-support group), turns every first-level subtree into a
  /// SubtreeTask, and drains the tasks through the work-stealing scheduler.
  /// One worker degenerates to the serial search: tasks are claimed in
  /// canonical order and nothing ever starves, so nothing splits.
  void MineRoot(const RowSet& items, uint32_t items_count);

  /// Runs one task: checks and descends into the subtree rooted at
  /// ctx->live[task.child].
  TKRGS_HOT void RunTask(WorkerState& ws, SubtreeTask& task);

  /// Rebinds a worker's DFS state to another task context and empties its
  /// admission cut cache.
  void SwitchCtx(WorkerState& ws, const NodeCtx& ctx) const;

  /// Whether the current node may shed its `remaining` unvisited children
  /// as tasks: only when another worker is starving, this worker has
  /// nothing queued itself, the node is shallow enough that its children
  /// are still worth shipping, and the unit's origin range has a slot for
  /// every child plus the continuing parent (ranges shrink geometrically
  /// with split nesting, throttling fragmentation before it can erode tie
  /// pruning).
  bool CanSpawn(const WorkerState& ws, size_t remaining) const;

  /// Sheds children first_child..live.size()-1 of the current node as
  /// tasks onto this worker's deque (a starving worker steals them FIFO =
  /// canonical-first) and records the spawn marker. The caller abandons
  /// its child loop afterwards.
  void SpawnRemaining(WorkerState& ws, const RowSet& items,
                      const std::vector<uint32_t>& live,
                      const std::vector<uint32_t>& live_freq,
                      const std::vector<uint32_t>& suffix_pos,
                      size_t first_child);

  void SeedSingleItems(const Bitset& frequent_items);
  TKRGS_HOT void MaybeRaiseMinsup(WorkerState& ws);

  /// The top-k admission check (§4.1.1, Lemma 3.2): whether some positive
  /// row of ws.x_stack ∪ `rows` — the rows the caller can still cover —
  /// has a published k-th entry that does not Dominate (sup, asup) at
  /// ws.origin. Stops at the first such row. `cut` is the caller's cache:
  /// a full scan that finds none stores the exact cut it folded (Equation
  /// 1/2: the weakest k-th entry, with the latest origin among the rows
  /// tied at it), and a later check the cached cut already Dominates
  /// answers without reading a row. The cache stays sound while the
  /// caller's later checks read a subset of the rows it was folded over:
  /// published k-th entries only tighten, and fewer rows cut no looser.
  TKRGS_HOT bool Admits(WorkerState& ws, uint32_t sup, uint32_t asup,
                        std::span<const uint32_t> rows, Thresh* cut) const;
  /// Whether nothing below the current node can enter a final list: its
  /// best group (support best_sup, at least min_neg negative rows) is
  /// under minsup or, with top-k pruning, not admitted on `rows`.
  TKRGS_HOT bool Hopeless(WorkerState& ws, uint32_t best_sup,
                          uint32_t min_neg, std::span<const uint32_t> rows,
                          Thresh* cut) const;
  /// Step 13: records the current node's group unless minsup or the
  /// admission check on `cand` (the node's candidates) rejects it.
  TKRGS_HOT void EmitAt(WorkerState& ws, const RowSet& items,
                        std::span<const uint32_t> cand, Thresh* cut);
  void ReplayEmissions(const std::vector<Emission>& emissions);
  void ReplayTask(const SubtreeTask& task);
  void Finalize(const Bitset& frequent_items, TopkResult* result);

  bool IsPos(uint32_t pos) const { return pos_positive_[pos] != 0; }

  const DiscreteDataset& data_;
  const ClassLabel consequent_;
  const TopkMinerOptions& opt_;

  std::vector<RowId> order_;           // position -> original row id
  std::vector<uint32_t> position_of_;  // original row id -> position
  std::vector<uint8_t> pos_positive_;  // position -> is consequent-class
  std::vector<uint32_t> positive_positions_;  // in scope: >= begin_pos
  std::vector<uint32_t> item_support_;  // item -> |item_rows(item)|
  uint32_t item_words_ = 0;  // 64-bit words of an item-universe bitmap
  uint32_t row_words_ = 0;   // 64-bit words of a row bitmap
  uint32_t initial_minsup_ = 1;
  uint32_t num_workers_ = 1;

  std::unique_ptr<SharedTopk> shared_;

  // Deterministic-merge state; only touched single-threaded (seeding
  // before the workers start, replay after they join).
  TopkLists lists_;
  std::vector<Emission> root_emissions_;

  // First-level tasks in canonical order; split-off descendants hang off
  // their parents' `spawned` vectors. The task OBJECTS are written by
  // whichever worker claims them; the containers are fixed before workers
  // start and read again only after they join.
  std::vector<std::unique_ptr<SubtreeTask>> tasks_;
  std::shared_ptr<const NodeCtx> root_ctx_;

  // Scheduler state. root_queue_ holds the unclaimed first-level tasks —
  // everyone "steals" from its top, so claims are FIFO = canonical order,
  // which keeps early workers on the subtrees a serial search would mine
  // first (the speculation window stays ~num_workers wide). deques_[w] is
  // worker w's own deque of split-off tasks: owner-LIFO, thief-FIFO.
  std::unique_ptr<WorkStealDeque<SubtreeTask*>> root_queue_;
  std::vector<std::unique_ptr<WorkStealDeque<SubtreeTask*>>> deques_;
  std::atomic<size_t> pending_{0};    // claimed-or-queued, not yet finished
  std::atomic<uint32_t> starving_{0}; // workers spinning for something to do

  std::atomic<bool> stopped_{false};
  std::atomic<bool> timed_out_{false};
  MinerStats stats_;
};

void TopkSearch::ReplayEmissions(const std::vector<Emission>& emissions) {
  for (const Emission& emission : emissions) {
    for (uint32_t pos : emission.covered) {
      lists_.Insert(pos, emission.handle);
    }
  }
}

/// Replays one task's emissions in canonical DFS order, recursing into
/// split-off subtrees at their spawn markers: a split shed the unvisited
/// children of a node and then the parent moved on, so everything the
/// parent emitted after the marker is canonically AFTER the spawned
/// subtrees — the spawned tasks replay at the marker, not at the end.
void TopkSearch::ReplayTask(const SubtreeTask& task) {
  size_t e = 0;
  for (size_t s = 0; s < task.spawned.size(); ++s) {
    TKRGS_DCHECK_LE(task.spawn_at[s], task.emissions.size(),
                    "spawn marker beyond the recorded emission stream");
    for (; e < task.spawn_at[s]; ++e) {
      for (uint32_t pos : task.emissions[e].covered) {
        lists_.Insert(pos, task.emissions[e].handle);
      }
    }
    ReplayTask(*task.spawned[s]);
  }
  for (; e < task.emissions.size(); ++e) {
    for (uint32_t pos : task.emissions[e].covered) {
      lists_.Insert(pos, task.emissions[e].handle);
    }
  }
}

void TopkSearch::SeedSingleItems(const Bitset& frequent_items) {
  const Bitset class_rows = data_.ClassRowset(consequent_);
  // Rows before the shard scope (none in stand-alone mining). Shard 0
  // plants every seed; a later shard skips the seeds an out-of-scope row
  // holds, which shard 0 already lists, so its search is the one over its
  // own rows alone (DESIGN.md §14).
  Bitset out_of_scope(data_.num_rows());
  for (uint32_t pos = 0; pos < opt_.begin_pos; ++pos) {
    out_of_scope.Set(order_[pos]);
  }
  frequent_items.ForEach([&](size_t item_index) {
    const ItemId item = static_cast<ItemId>(item_index);
    const Bitset& rows = data_.item_rows(item);
    if (rows.Intersects(out_of_scope)) return;
    auto handle = std::make_shared<GroupHandle>();
    handle->provisional = true;
    handle->group.antecedent = Bitset(data_.num_items());
    handle->group.antecedent.Set(item);
    handle->group.row_support = rows;
    handle->group.consequent = consequent_;
    handle->group.antecedent_support = static_cast<uint32_t>(rows.Count());
    handle->group.support =
        static_cast<uint32_t>(rows.IntersectCount(class_rows));
    rows.ForEach([&](size_t row) {
      if (data_.label(static_cast<RowId>(row)) != consequent_) return;
      const uint32_t pos = position_of_[row];
      lists_.Insert(pos, handle);
      shared_->Insert(pos, handle, /*origin=*/0);  // seeds replay first
    });
  });
}

void TopkSearch::MaybeRaiseMinsup(WorkerState& ws) {
  if (!opt_.dynamic_min_support) return;
  // The O(np) scan below can only conclude anything new after some k-th
  // entry was republished; the epoch stamp says whether one was. This is
  // what makes calling it at EVERY node affordable — at an unchanged
  // epoch it is one atomic load.
  const uint64_t epoch = shared_->Epoch();
  if (epoch == ws.minsup_epoch) return;
  ws.minsup_epoch = epoch;
  uint32_t lowest = UINT32_MAX;
  for (uint32_t pos : positive_positions_) {
    const Thresh t = shared_->KthOf(pos);
    if (t.sup == 0 || t.sup != t.asup) {
      return;  // some list not full yet, or its k-th below 100% confidence
    }
    lowest = std::min(lowest, t.sup);
  }
  // Every row already holds k groups of 100% confidence with support >=
  // lowest: anything with support < lowest is strictly less significant
  // than every k-th entry. (The paper raises to lowest+1; that extra level
  // would also prune exact significance ties, which the deterministic
  // replay merge must still get to see — the reported effective minimum
  // support is recomputed with the paper's rule by
  // TopkLists::EffectiveMinsup.)
  if (lowest != UINT32_MAX && lowest > shared_->minsup()) {
    shared_->RaiseMinsup(lowest);
  }
}

bool TopkSearch::Admits(WorkerState& ws, uint32_t sup, uint32_t asup,
                        std::span<const uint32_t> rows, Thresh* cut) const {
  if (Dominated(sup, asup, *cut, ws.origin)) return false;
  // The scan folds the exact cut as it goes. `vs` compares the candidate
  // with the fold so far; it is never positive (an admitting row ends the
  // scan), so a row above the fold is Dominated at the price of the one
  // comparison that keeps the fold.
  Thresh fold{UINT32_MAX, UINT32_MAX, 0};  // the cut over no row: prune all
  int vs = -1;
  uint64_t scanned = 0;
  auto admitting_row = [&](std::span<const uint32_t> positions) {
    for (uint32_t pos : positions) {
      if (!IsPos(pos)) continue;
      ++scanned;
      const Thresh t = shared_->KthOf(pos);
      const int cmp = CompareSignificance(t.sup, t.asup, fold.sup, fold.asup);
      if (cmp > 0) continue;
      if (cmp < 0) {
        fold = t;
        vs = CompareSignificance(sup, asup, t.sup, t.asup);
      } else {
        fold.origin = std::max(fold.origin, t.origin);
      }
      if (vs > 0 || (vs == 0 && t.origin > ws.origin)) return true;
    }
    return false;
  };
  const bool admitted = admitting_row(ws.x_stack) || admitting_row(rows);
  ws.stats.cut_rows_scanned += scanned;
  if (!admitted) *cut = fold;
  return admitted;
}

bool TopkSearch::Hopeless(WorkerState& ws, uint32_t best_sup,
                          uint32_t min_neg, std::span<const uint32_t> rows,
                          Thresh* cut) const {
  if (best_sup < shared_->minsup()) return true;
  if (!opt_.use_topk_pruning) return false;
  // Best achievable significance in the subtree: support best_sup with
  // confidence best_sup / (best_sup + min_neg). Strictly-worse subtrees
  // are always hopeless; a subtree that merely TIES a row's k-th entry is
  // beaten there only when every tied entry canonically precedes anything
  // this subtree could emit (see Dominated) — otherwise its tie might
  // still win the replay merge's discovery-order tiebreak and must be
  // explored. At one thread every prior entry precedes the current node,
  // so this degenerates to the serial search's tie pruning exactly.
  return !Admits(ws, best_sup, best_sup + min_neg, rows, cut);
}

void TopkSearch::EmitAt(WorkerState& ws, const RowSet& items,
                        std::span<const uint32_t> cand, Thresh* cut) {
  if (ws.xp < shared_->minsup()) return;
  if (opt_.use_topk_pruning && !Admits(ws, ws.xp, ws.xp + ws.xn, cand, cut)) {
    // Beaten on every coverable row by k recorded entries — strictly more
    // significant ones, or exact ties that canonically precede this node
    // (see Hopeless): it can never enter a final list, so it need not be
    // recorded. (A suppressed emission may duplicate a provisional seed's
    // support set; Finalize closes surviving provisionals itself, so the
    // lost upgrade is harmless.)
    return;
  }
  // NOLINT(hotpath: one handle per emitted group; EmitAt runs only for
  // closed nodes that pass the top-k admission cut, not per node)
  auto handle = std::make_shared<GroupHandle>();
  // NOLINT(hotpath: materializes the emitted group's itemset once)
  handle->group.antecedent = items.ToBitset();
  handle->group.consequent = consequent_;
  handle->group.support = ws.xp;
  handle->group.antecedent_support = ws.xp + ws.xn;
  // NOLINT(hotpath: row-support bitmap built once per emitted group)
  Bitset rows(data_.num_rows());
  for (uint32_t pos : ws.x_stack) rows.Set(order_[pos]);
  handle->group.row_support = std::move(rows);
  ++ws.stats.groups_emitted;
  Emission emission;
  emission.handle = handle;
  for (uint32_t pos : ws.x_stack) {
    if (!IsPos(pos)) continue;
    // NOLINT(hotpath: covered list bounded by |X|, once per emission)
    emission.covered.push_back(pos);
    // The recorded origin is the unit's current range base — exact under
    // splitting because SpawnRemaining bumps it past every shed subtree
    // (Insert itself degrades an unencodable >= kOriginMax base to
    // kOriginInf, which never suppresses a tie).
    shared_->Insert(pos, handle, ws.origin);
  }
  // NOLINT(hotpath: per-emission append; sink capacity is retained)
  ws.sink->push_back(std::move(emission));
}

void TopkSearch::Visit(WorkerState& ws, std::span<const uint32_t> cand,
                       const RowSet& items, uint32_t items_count,
                       bool closed_on_left) {
  if (stopped_.load(std::memory_order_relaxed)) return;
  ++ws.stats.nodes_visited;
  if (opt_.deadline.Expired()) {
    stopped_.store(true, std::memory_order_relaxed);
    timed_out_.store(true, std::memory_order_relaxed);
    return;
  }
  if (items_count == 0) return;  // I(X) = ∅: no rules below this node

  uint32_t rp = 0;  // positive candidate rows (bounds the subtree's support)
  for (uint32_t p : cand) {
    if (IsPos(p)) ++rp;
  }

  // Step 8: threshold updating.
  MaybeRaiseMinsup(ws);
  // This node's admission cut cache (see Admits). Its checks read x_stack
  // ∪ cand, or the subset x_stack ∪ live once Step 10 has moved absorbed
  // rows onto the stack; the one check over live that runs before a check
  // over cand (Step 11) refreshes the cache only when it prunes the node.
  Thresh cut;

  // Step 9: loose bounds (no scan needed).
  if (opt_.use_bound_pruning &&
      Hopeless(ws, ws.xp + rp, ws.xn, cand, &cut)) {
    ++ws.stats.pruned_bounds;
    return;
  }

  // Step 10: scan TT'|_X — frequencies, then absorb rows occurring in every
  // tuple (they appear in all descendants).
  PooledVector<uint32_t> absorbed_lease(&ws.scratch);
  PooledVector<uint32_t> live_lease(&ws.scratch);
  PooledVector<uint32_t> freq_lease(&ws.scratch);
  PooledVector<uint32_t> suffix_lease(&ws.scratch);
  std::vector<uint32_t>& absorbed = *absorbed_lease;
  std::vector<uint32_t>& live = *live_lease;
  std::vector<uint32_t>& live_freq = *freq_lease;
  std::vector<uint32_t>& suffix_pos = *suffix_lease;
  ScanAndAbsorb(ws, cand, items, items_count, &absorbed, &live, &live_freq,
                &suffix_pos);

  // Step 11: tight bounds (suffix_pos[0] = mp, the candidate consequent
  // rows that can still appear in a descendant antecedent support set).
  const bool pruned = opt_.use_bound_pruning &&
                      Hopeless(ws, ws.xp + suffix_pos[0], ws.xn, live, &cut);
  if (pruned) {
    ++ws.stats.pruned_bounds;
  } else {
    // Step 13: emit the rule group of this node and update covered rows.
    // Only nodes with X == R(I(X)) carry a rule group; when the backward
    // check failed we are in a redundant subtree that emits nothing.
    if (closed_on_left) EmitAt(ws, items, cand, &cut);

    // Step 14: enumerate children in ORD order.
    for (size_t i = 0;
         i < live.size() && !stopped_.load(std::memory_order_relaxed); ++i) {
      if (live.size() - i >= 2 && CanSpawn(ws, live.size() - i)) {
        // Dynamic split: another worker is starving and nothing else of
        // ours is stealable — shed ALL unvisited children of this node
        // (including live[i]: the spawned batch must be a canonically
        // contiguous block for the replay marker to stitch back in) and
        // abandon the loop. This worker pops part of the batch back off
        // its own deque after unwinding; the starving workers take the
        // rest.
        // NOLINT(hotpath: split path — runs once per shed subtree when a
        // worker starves, bounded by the spawn policy, not per node)
        SpawnRemaining(ws, items, live, live_freq, suffix_pos, i);
        break;
      }
      // Per-child loose bounds before any per-child work. A check that
      // misses the cache reads the current thresholds, so a k-th entry any
      // worker tightened prunes the very next child.
      if (opt_.use_bound_pruning &&
          ChildHopeless(ws, live[i], suffix_pos[i + 1], live, &cut)) {
        ++ws.stats.pruned_bounds;
        continue;
      }
      Descend(ws, items, live, live_freq[i], i);
    }
  }

  for (auto it = absorbed.rbegin(); it != absorbed.rend(); ++it) {
    const uint32_t p = *it;
    IsPos(p) ? --ws.xp : --ws.xn;
    ws.x_stack.pop_back();
    ws.in_x[p] = 0;
  }
}

void TopkSearch::CountFreq(WorkerState& ws, std::span<const uint32_t> cand,
                           const RowSet& items, std::vector<uint32_t>* freq) {
  ++ws.stats.freq_scans;
  // NOLINT(hotpath: pooled lease retains capacity across nodes)
  freq->resize(cand.size());
  const uint64_t n = items.Count();
  const bool sparse = items.is_sparse();
  bool postings =
      CountFreqFromPostings(cand.size(), n, sparse, item_words_, 0, row_words_);
  if (postings) {
    uint64_t support_sum = 0;
    items.ForEach([&](size_t item) { support_sum += item_support_[item]; });
    postings = CountFreqFromPostings(cand.size(), n, sparse, item_words_,
                                     support_sum, row_words_);
  }
  if (!postings) {
    for (size_t c = 0; c < cand.size(); ++c) {
      // NOLINT(cast: IntersectCount <= num_items <= kMaxItemUniverse = 2^20)
      (*freq)[c] = static_cast<uint32_t>(
          items.IntersectCount(data_.row_bitset(order_[cand[c]])));
    }
    return;
  }
  ++ws.stats.postings_scans;
  if (ws.row_count.empty()) {
    // NOLINT(hotpath: one-time per-worker growth on its first postings
    // scan; every later scan reuses the counter allocation-free)
    ws.row_count.assign(data_.num_rows(), 0);
  }
  uint32_t* count = ws.row_count.data();
  auto rows_of = [&](size_t item) -> const Bitset& {
    // NOLINT(cast: ForEach yields bit positions < num_items, an ItemId)
    return data_.item_rows(static_cast<ItemId>(item));
  };
  items.ForEach([&](size_t item) {
    rows_of(item).ForEach([count](size_t row) { ++count[row]; });
  });
  for (size_t c = 0; c < cand.size(); ++c) {
    (*freq)[c] = count[order_[cand[c]]];
  }
  items.ForEach([&](size_t item) {
    rows_of(item).ForEach([count](size_t row) { count[row] = 0; });
  });
}

void TopkSearch::ScanAndAbsorb(WorkerState& ws,
                               std::span<const uint32_t> cand,
                               const RowSet& items, uint32_t items_count,
                               std::vector<uint32_t>* absorbed,
                               std::vector<uint32_t>* live,
                               std::vector<uint32_t>* live_freq,
                               std::vector<uint32_t>* suffix_pos) {
  PooledVector<uint32_t> cand_freq_lease(&ws.scratch);
  std::vector<uint32_t>& cand_freq = *cand_freq_lease;
  CountFreq(ws, cand, items, &cand_freq);
  for (size_t c = 0; c < cand.size(); ++c) {
    const uint32_t p = cand[c];
    const uint32_t f = cand_freq[c];
    if (f == items_count) {
      // NOLINT(hotpath: pooled lease retains capacity across nodes)
      absorbed->push_back(p);
    } else if (f > 0) {
      // NOLINT(hotpath: pooled lease retains capacity across nodes)
      live->push_back(p);
      live_freq->push_back(f);  // NOLINT(hotpath: pooled lease, as above)
    }
  }
  for (uint32_t p : *absorbed) {
    ws.in_x[p] = 1;
    // NOLINT(hotpath: DFS stack retains capacity; amortized O(1))
    ws.x_stack.push_back(p);
    IsPos(p) ? ++ws.xp : ++ws.xn;
  }
  // Positive candidates at positions after live[i] — the only rows that
  // can still raise a child subtree's support beyond X.
  // NOLINT(hotpath: pooled lease retains capacity across nodes)
  suffix_pos->assign(live->size() + 1, 0);
  for (size_t i = live->size(); i-- > 0;) {
    (*suffix_pos)[i] = (*suffix_pos)[i + 1] + (IsPos((*live)[i]) ? 1 : 0);
  }
}

bool TopkSearch::HeldEarlier(const WorkerState& ws, const RowSet& items,
                             uint32_t items_count, uint32_t p) const {
  auto holds = [&](uint32_t q) {
    return !ws.in_x[q] && items.IsSubsetOf(data_.row_bitset(order_[q]));
  };
  if (items_count < p) {
    // Finding the rarest item costs items_count probes, so it pays only
    // when that is below the p-row walk.
    uint32_t rarest = 0;
    uint32_t rarest_support = UINT32_MAX;
    items.ForEach([&](size_t item) {
      if (item_support_[item] < rarest_support) {
        rarest_support = item_support_[item];
        // NOLINT(cast: ForEach yields bit positions < num_items, an ItemId)
        rarest = static_cast<uint32_t>(item);
      }
    });
    if (row_words_ + rarest_support < p) {
      const Bitset& rows = data_.item_rows(rarest);
      for (size_t r = rows.FindFirst(); r < rows.size();
           r = rows.FindNext(r)) {
        const uint32_t q = position_of_[r];
        if (q < p && holds(q)) return true;
      }
      return false;
    }
  }
  for (uint32_t q = 0; q < p; ++q) {
    if (holds(q)) return true;
  }
  return false;
}

void TopkSearch::Descend(WorkerState& ws, const RowSet& items,
                         std::span<const uint32_t> live, uint32_t child_count,
                         size_t i) {
  const uint32_t p = live[i];
  if (ws.rowset_scratch.size() <= ws.depth) {
    // NOLINT(hotpath: one-time growth per depth first reached; every
    // later node at this depth reuses the slot allocation-free)
    ws.rowset_scratch.resize(ws.depth + 1);
  }
  RowSet& child_items = ws.rowset_scratch[ws.depth];
  items.IntersectAdaptiveInto(data_.row_bitset(order_[p]), &child_items);
  // Step 7, run before the child is visited: a skipped earlier row
  // containing I(X ∪ {p}) means the child duplicates an earlier branch
  // (X' != R(I(X')) there and at every descendant), so nothing in it may
  // be emitted and — when the pruning is enabled — it is not visited.
  // Redundancy propagates downward (the earlier row also contains every
  // descendant's smaller I), so in ablation mode each descendant's own
  // check re-detects it. In a shard, the same check hands a node that a
  // row before the scope holds to the earlier shard that enumerates it.
  const bool child_closed = !HeldEarlier(ws, child_items, child_count, p);
  if (!child_closed) {
    ++ws.stats.pruned_backward;
    if (opt_.use_backward_pruning) return;
  }
  ws.in_x[p] = 1;
  ws.x_stack.push_back(p);  // NOLINT(hotpath: stack keeps capacity)
  IsPos(p) ? ++ws.xp : ++ws.xn;
  ++ws.depth;
  // The child's candidates are the live rows after p: rows that share no
  // item with I(X) share none with the smaller I(X ∪ {p}) either.
  Visit(ws, live.subspan(i + 1), child_items, child_count, child_closed);
  --ws.depth;
  IsPos(p) ? --ws.xp : --ws.xn;
  ws.x_stack.pop_back();
  ws.in_x[p] = 0;
}

void TopkSearch::SwitchCtx(WorkerState& ws, const NodeCtx& ctx) const {
  ws.ctx = &ctx;
  ws.ctx_cut = Thresh{};
  for (uint32_t p : ws.x_stack) ws.in_x[p] = 0;
  ws.x_stack = ctx.x_stack;
  for (uint32_t p : ws.x_stack) ws.in_x[p] = 1;
  ws.xp = ctx.xp;
  ws.xn = ctx.xn;
  ws.depth = ctx.depth;
}

bool TopkSearch::CanSpawn(const WorkerState& ws, size_t remaining) const {
  // Past this depth the unvisited children are too small to be worth
  // shipping.
  constexpr uint32_t kMaxSpawnDepth = 32;
  return num_workers_ > 1 && ws.task != nullptr &&
         starving_.load(std::memory_order_relaxed) > 0 &&
         deques_[ws.worker_index]->Empty() &&
         ws.depth <= kMaxSpawnDepth &&
         // One origin slot per shed child plus one for the continuing
         // parent must fit in the unit's free range (see SpawnRemaining).
         ws.origin_limit - ws.origin >= remaining + 2;
}

void TopkSearch::SpawnRemaining(WorkerState& ws, const RowSet& items,
                                const std::vector<uint32_t>& live,
                                const std::vector<uint32_t>& live_freq,
                                const std::vector<uint32_t>& suffix_pos,
                                size_t first_child) {
  auto ctx = std::make_shared<NodeCtx>();
  ctx->x_stack = ws.x_stack;
  ctx->xp = ws.xp;
  ctx->xn = ws.xn;
  ctx->depth = ws.depth;
  ctx->items = items;
  ctx->live = live;
  ctx->live_freq = live_freq;
  ctx->suffix_pos = suffix_pos;

  SubtreeTask& parent = *ws.task;
  const size_t marker = parent.emissions.size();
  const size_t count = live.size() - first_child;
  // Carve the unit's free origin range [origin, origin_limit) among the
  // shed children and the continuing parent, in canonical order: child j
  // gets [base + 1 + j*slice, base + 1 + (j+1)*slice) and the parent's
  // own base moves past all of them. Everything already inserted with the
  // old base stays canonically before every child; each child's entries
  // order exactly against its siblings and against the parent's later
  // emissions — origin comparisons remain exact through the split.
  // CanSpawn guarantees slice >= 1.
  const uint32_t avail = ws.origin_limit - ws.origin - 1;
  const uint32_t slice = avail / (static_cast<uint32_t>(count) + 1);
  std::vector<SubtreeTask*> fresh;
  fresh.reserve(count);
  for (size_t j = first_child; j < live.size(); ++j) {
    auto t = std::make_unique<SubtreeTask>();
    t->ctx = ctx;
    t->child = static_cast<uint32_t>(j);
    t->origin_base =
        ws.origin + 1 + static_cast<uint32_t>(j - first_child) * slice;
    t->origin_limit = t->origin_base + slice;
    fresh.push_back(t.get());
    parent.spawned.push_back(std::move(t));
    parent.spawn_at.push_back(marker);
  }
  // The parent's own emissions are canonically AFTER the spawned subtrees
  // from here on; its remaining range starts past their slices.
  ws.origin += 1 + static_cast<uint32_t>(count) * slice;
  // Publish: count first (a stolen task must never be the one that drops
  // pending_ to zero while its siblings are still being pushed), then the
  // tasks themselves, oldest = canonically first, so a thief's StealTop
  // takes the earliest — and largest — subtree.
  pending_.fetch_add(count, std::memory_order_release);
  WorkStealDeque<SubtreeTask*>& own = *deques_[ws.worker_index];
  for (SubtreeTask* t : fresh) own.PushBottom(t);
  ws.stats.tasks_spawned += count;
}

void TopkSearch::RunTask(WorkerState& ws, SubtreeTask& task) {
  const NodeCtx& ctx = *task.ctx;
  // The serial search checks each child against its parent's cut before
  // descending; here the check runs when the task is claimed, against the
  // freshest thresholds (any achieved threshold is a sound pruning bound).
  // For a task that sat queued while the thresholds matured — the common
  // case late in the search — this is where the whole subtree dies, most
  // often on the cut cached by an earlier sibling's check.
  if (opt_.use_bound_pruning &&
      ChildHopeless(ws, ctx.live[task.child], ctx.suffix_pos[task.child + 1],
                    ctx.live, &ws.ctx_cut)) {
    ++ws.stats.pruned_bounds;
    return;
  }
  // ctx.items lives in the heap NodeCtx, never in the per-depth scratch,
  // so Descend's slot write cannot alias it.
  Descend(ws, ctx.items, ctx.live, ctx.live_freq[task.child], task.child);
}

void TopkSearch::MineRoot(const RowSet& items, uint32_t items_count) {
  WorkerState root_ws;
  root_ws.in_x.assign(data_.num_rows(), 0);
  root_ws.sink = &root_emissions_;
  root_ws.origin = 1;  // root emissions replay right after the seeds
  root_ws.origin_limit = 2;  // no range: the root unit never splits

  ++root_ws.stats.nodes_visited;
  bool fan_out = false;
  auto root_ctx = std::make_shared<NodeCtx>();
  if (opt_.deadline.Expired()) {
    timed_out_.store(true, std::memory_order_relaxed);
  } else if (items_count > 0) {
    std::vector<uint32_t> cand(data_.num_rows() - opt_.begin_pos);
    std::iota(cand.begin(), cand.end(), opt_.begin_pos);

    uint32_t rp = 0;
    for (uint32_t p : cand) {
      if (IsPos(p)) ++rp;
    }

    MaybeRaiseMinsup(root_ws);
    Thresh cut;  // the root's admission cut cache, used as in Visit

    if (opt_.use_bound_pruning && Hopeless(root_ws, rp, 0, cand, &cut)) {
      ++root_ws.stats.pruned_bounds;
    } else {
      std::vector<uint32_t> absorbed;
      ScanAndAbsorb(root_ws, cand, items, items_count, &absorbed,
                    &root_ctx->live, &root_ctx->live_freq,
                    &root_ctx->suffix_pos);

      const bool pruned =
          opt_.use_bound_pruning &&
          Hopeless(root_ws, root_ws.xp + root_ctx->suffix_pos[0], root_ws.xn,
                   root_ctx->live, &cut);
      if (pruned) {
        ++root_ws.stats.pruned_bounds;
      } else {
        EmitAt(root_ws, items, cand, &cut);

        root_ctx->x_stack = root_ws.x_stack;
        root_ctx->xp = root_ws.xp;
        root_ctx->xn = root_ws.xn;
        root_ctx->items = items;
        fan_out = true;
      }
    }
  }

  // Shard scope: only first-level children at positions below
  // first_level_end become subtree tasks. Children at or past it root
  // subtrees whose every closed group has its earliest non-absorbed row in
  // a LATER shard's owned range — that shard mines them. live is ascending
  // in position, so the eligible children are a prefix.
  uint32_t fan_limit = static_cast<uint32_t>(root_ctx->live.size());
  while (fan_limit > 0 &&
         root_ctx->live[fan_limit - 1] >= opt_.first_level_end) {
    --fan_limit;
  }

  if (!fan_out || root_ctx->live.empty() || fan_limit == 0) {
    stats_.Add(root_ws.stats);
    return;
  }
  root_ctx_ = root_ctx;

  // Every first-level subtree is one task owning an equal stripe of the
  // origin space, in canonical child order (0 = seeds, 1 = root; see the
  // kOriginMax comment). One scheduler serves every thread count: at one
  // worker the root queue is claimed strictly in canonical order and
  // nothing ever starves, so no split fires and the search IS the paper's
  // serial DFS. stride == 0 (more first-level children than origin slots)
  // degrades every task to the unencodable base: ties are never
  // suppressed and tasks never split, which is slow but exact.
  const uint32_t fan = fan_limit;
  const uint32_t stride = (kOriginMax - 2) / std::max(fan, 1u);
  tasks_.reserve(fan);
  for (uint32_t i = 0; i < fan; ++i) {
    auto t = std::make_unique<SubtreeTask>();
    t->ctx = root_ctx_;
    t->child = i;
    t->origin_base = stride > 0 ? 2 + i * stride : kOriginMax;
    t->origin_limit = stride > 0 ? 2 + (i + 1) * stride : kOriginMax;
    tasks_.push_back(std::move(t));
  }

  root_queue_ = std::make_unique<WorkStealDeque<SubtreeTask*>>();
  for (auto& t : tasks_) root_queue_->PushBottom(t.get());
  const uint32_t workers = num_workers_;
  deques_.clear();
  deques_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    deques_.push_back(std::make_unique<WorkStealDeque<SubtreeTask*>>());
  }
  pending_.store(tasks_.size(), std::memory_order_release);

  // node_budget != 0 caps how many enumeration nodes this worker may visit
  // before it stops claiming tasks (the serial warm-up below); 0 = run
  // until the search is drained.
  auto worker_loop = [&](WorkerState& ws, uint64_t node_budget) {
    auto run_one = [&](SubtreeTask* task) {
      if (ws.ctx != task->ctx.get()) SwitchCtx(ws, *task->ctx);
      ws.task = task;
      ws.sink = &task->emissions;
      ws.origin = task->origin_base;
      ws.origin_limit = task->origin_limit;
      RunTask(ws, *task);
      ws.task = nullptr;
      ++ws.stats.tasks_executed;
    };

    WorkStealDeque<SubtreeTask*>& own = *deques_[ws.worker_index];
    while (!stopped_.load(std::memory_order_relaxed)) {
      if (node_budget != 0 && ws.stats.nodes_visited >= node_budget) break;
      // Own split-off work first (deepest subtree, context already hot),
      // then an unclaimed first-level task (FIFO = canonical order), then
      // stealing from a sibling (FIFO = its oldest, largest split).
      SubtreeTask* task = own.PopBottom();
      if (task == nullptr) task = root_queue_->StealTop();
      if (task == nullptr) {
        if (pending_.load(std::memory_order_acquire) == 0) break;
        starving_.fetch_add(1, std::memory_order_relaxed);
        uint32_t spins = 0;
        while (task == nullptr && !stopped_.load(std::memory_order_relaxed)) {
          for (uint32_t v = 1; v < workers && task == nullptr; ++v) {
            task = deques_[(ws.worker_index + v) % workers]->StealTop();
          }
          if (task != nullptr) {
            ++ws.stats.tasks_stolen;
            break;
          }
          if (pending_.load(std::memory_order_acquire) == 0) break;
          if (opt_.deadline.Expired()) {
            stopped_.store(true, std::memory_order_relaxed);
            timed_out_.store(true, std::memory_order_relaxed);
            break;
          }
          // Yield while a split looks imminent, then back off to a short
          // sleep: on an oversubscribed machine a pack of yielding
          // starvers would otherwise eat the time slices of the one
          // worker that has actual work to shed.
          if (++spins < 64) {
            std::this_thread::yield();
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
        starving_.fetch_sub(1, std::memory_order_relaxed);
        if (task == nullptr) break;
      }
      if (opt_.deadline.Expired()) {
        stopped_.store(true, std::memory_order_relaxed);
        timed_out_.store(true, std::memory_order_relaxed);
        pending_.fetch_sub(1, std::memory_order_release);
        break;
      }
      run_one(task);
      pending_.fetch_sub(1, std::memory_order_release);
    }
  };

  if (workers <= 1) {
    root_ws.worker_index = 0;
    worker_loop(root_ws, 0);
    stats_.Add(root_ws.stats);
    return;
  }

  // Serial warm-up: the calling thread drains first-level tasks in
  // canonical order until the budget is spent, so the pool starts against
  // a top-k heap whose thresholds already prune. No split can fire here
  // (nothing is starving yet), so this prefix IS the paper's serial DFS;
  // small searches finish inside it and never pay for threads at all.
  const uint64_t warmup = opt_.ResolveWarmupNodes();
  if (warmup > 0) {
    root_ws.worker_index = 0;
    worker_loop(root_ws, root_ws.stats.nodes_visited + warmup);
    if (pending_.load(std::memory_order_acquire) == 0 ||
        stopped_.load(std::memory_order_relaxed)) {
      stats_.Add(root_ws.stats);
      return;
    }
  }

  std::vector<std::unique_ptr<WorkerState>> pool_states;
  pool_states.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    auto ws = std::make_unique<WorkerState>();
    ws->in_x.assign(data_.num_rows(), 0);
    ws->worker_index = t;
    pool_states.push_back(std::move(ws));
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    pool.emplace_back(
        [&worker_loop, &pool_states, t] { worker_loop(*pool_states[t], 0); });
  }
  for (std::thread& t : pool) t.join();

  stats_.Add(root_ws.stats);
  for (const auto& ws : pool_states) stats_.Add(ws->stats);
}

void TopkSearch::Finalize(const Bitset& frequent_items, TopkResult* result) {
  result->per_row.assign(data_.num_rows(), {});
  for (uint32_t pos : positive_positions_) {
    for (const HandlePtr& handle : lists_.at(pos)) {
      if (!handle->provisional) continue;
      // Close the seeded single item: its upper bound was never emitted
      // (the emitting node was pruned as strictly-dominated).
      Bitset closure = data_.RowSupportSet(handle->group.row_support);
      closure.IntersectWith(frequent_items);
      handle->group.antecedent = std::move(closure);
      handle->provisional = false;
    }
    lists_.Export(pos, &result->per_row[order_[pos]]);
  }
  result->effective_min_support =
      opt_.dynamic_min_support
          ? lists_.EffectiveMinsup(initial_minsup_, positive_positions_)
          : initial_minsup_;
}

TopkResult TopkSearch::Run() {
  Stopwatch timer;
  const Status options_status = opt_.Validate();
  TOPKRGS_CHECK(options_status.ok(), options_status.message().c_str());
  TOPKRGS_CHECK(opt_.begin_pos <= data_.num_rows(),
                "shard scope begins past the last row");
  initial_minsup_ = std::max<uint32_t>(1, opt_.min_support);

  const Bitset frequent = FrequentItems(data_, consequent_, initial_minsup_);
  switch (opt_.row_order) {
    case TopkMinerOptions::RowOrder::kClassDominantWeighted:
      order_ = ClassDominantOrder(data_, consequent_, frequent);
      break;
    case TopkMinerOptions::RowOrder::kClassDominant:
      // Empty weight set keeps rows in original order within each class.
      order_.clear();
      for (RowId r = 0; r < data_.num_rows(); ++r) {
        if (data_.label(r) == consequent_) order_.push_back(r);
      }
      for (RowId r = 0; r < data_.num_rows(); ++r) {
        if (data_.label(r) != consequent_) order_.push_back(r);
      }
      break;
    case TopkMinerOptions::RowOrder::kNatural:
      order_.resize(data_.num_rows());
      for (RowId r = 0; r < data_.num_rows(); ++r) order_[r] = r;
      break;
  }
  position_of_.assign(data_.num_rows(), 0);
  pos_positive_.assign(data_.num_rows(), 0);
  positive_positions_.clear();
  for (uint32_t pos = 0; pos < order_.size(); ++pos) {
    position_of_[order_[pos]] = pos;
    pos_positive_[pos] = data_.label(order_[pos]) == consequent_ ? 1 : 0;
    if (pos_positive_[pos] != 0 && pos >= opt_.begin_pos) {
      positive_positions_.push_back(pos);
    }
  }
  item_support_.resize(data_.num_items());
  for (ItemId item = 0; item < data_.num_items(); ++item) {
    item_support_[item] = data_.ItemSupport(item);
  }
  item_words_ = (data_.num_items() + 63) / 64;
  row_words_ = (data_.num_rows() + 63) / 64;
  lists_ = TopkLists(data_.num_rows(), opt_.k);
  shared_ = std::make_unique<SharedTopk>(data_.num_rows(), opt_.k,
                                         initial_minsup_);

  num_workers_ = ResolveThreadCount(opt_.threads,
                                    std::thread::hardware_concurrency());

  if (opt_.seed_single_items) SeedSingleItems(frequent);

  const uint32_t items_count = static_cast<uint32_t>(frequent.Count());
  if (items_count > 0 && !positive_positions_.empty()) {
    // The root item set is (near-)dense by construction; descendants
    // re-decide their representation per node as I(X) shrinks.
    const RowSet root_items = RowSet::FromBitset(frequent);
    MineRoot(root_items, items_count);
  }

  // Deterministic merge: replay every recorded emission in canonical
  // discovery order — seeds (inserted during setup), the root node's
  // groups, then each first-level subtree in enumeration order, recursing
  // into split-off tasks at their spawn markers. This is exactly the
  // serial DFS order, so the merged lists match a serial search bit for
  // bit NO MATTER which worker ran which task or where the splits fell.
  // The final lists depend only on WHAT was recorded, never on when;
  // pruning-timing differences across thread counts only vary the set of
  // recorded never-winner emissions, which the replay rejects anyway.
  ReplayEmissions(root_emissions_);
  for (const auto& task : tasks_) ReplayTask(*task);

  TopkResult result;
  Finalize(frequent, &result);
  stats_.timed_out = timed_out_.load(std::memory_order_relaxed);
  stats_.seconds = timer.ElapsedSeconds();
  result.stats = stats_;
  result.ValidateInvariants(opt_.k);
  return result;
}

}  // namespace

Status TopkMinerOptions::Validate() const {
  if (k < 1) {
    return Status::InvalidArgument("TopkMinerOptions: k must be >= 1");
  }
  if ((begin_pos != 0 || first_level_end != UINT32_MAX) &&
      row_order != RowOrder::kClassDominantWeighted) {
    return Status::InvalidArgument(
        "TopkMinerOptions: a shard scope requires the default row order "
        "kClassDominantWeighted (begin_pos and first_level_end are "
        "positions in the planner's ORD, which only that order reproduces)");
  }
  return Status::OK();
}

bool TopkResult::CheckInvariants(uint32_t k, std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  for (size_t row = 0; row < per_row.size(); ++row) {
    const auto& list = per_row[row];
    if (list.size() > k) {
      return fail("row " + std::to_string(row) + " holds " +
                  std::to_string(list.size()) + " groups, more than k = " +
                  std::to_string(k));
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const RuleGroupPtr& group = list[i];
      if (group == nullptr) {
        return fail("row " + std::to_string(row) + " holds a null group");
      }
      std::string group_error;
      if (!group->CheckInvariants(&group_error)) {
        return fail("row " + std::to_string(row) + " rank " +
                    std::to_string(i + 1) + ": " + group_error);
      }
      if (row < group->row_support.size() && !group->row_support.Test(row)) {
        return fail("row " + std::to_string(row) + " rank " +
                    std::to_string(i + 1) + " group does not cover the row");
      }
      if (i > 0 &&
          CompareSignificance(list[i - 1]->support,
                              list[i - 1]->antecedent_support, group->support,
                              group->antecedent_support) < 0) {
        return fail("row " + std::to_string(row) +
                    " list not sorted by significance at rank " +
                    std::to_string(i + 1));
      }
      for (size_t j = 0; j < i; ++j) {
        if (list[j] == group) {
          return fail("row " + std::to_string(row) +
                      " lists the same group twice (ranks " +
                      std::to_string(j + 1) + " and " + std::to_string(i + 1) +
                      ")");
        }
      }
    }
  }
  return true;
}

void TopkResult::ValidateInvariants(uint32_t k) const {
#if TOPKRGS_DCHECK_IS_ON()
  std::string error;
  TKRGS_DCHECK(CheckInvariants(k, &error), error.c_str());
#else
  (void)k;
#endif
}

namespace {

/// Collapses `candidates` (scan order) to the distinct rowsets, keeping
/// the first occurrence of each and preserving scan order.
///
/// The hash only buckets the equality probes — it never decides order:
/// output order is the candidates' own order, the membership index is an
/// ORDERED map (no hash-bucket iteration anywhere), and within a bucket
/// the candidate indices are probed in sorted (ascending, i.e. scan)
/// order. Salting the hash therefore reshuffles buckets without moving a
/// single output element — pinned by the DistinctGroupsHashSaltInvariant
/// regression test, which is what licenses the hash in this
/// deterministic zone at all.
std::vector<RuleGroupPtr> DedupByRowSupport(
    const std::vector<const RuleGroupPtr*>& candidates, uint64_t hash_salt) {
  std::vector<RuleGroupPtr> out;
  std::map<uint64_t, std::vector<size_t>> seen;  // salted hash -> out indices
  for (const RuleGroupPtr* gp : candidates) {
    const RuleGroupPtr& g = *gp;
    // SplitMix64 finalizer over (rowset hash ^ salt): any salt yields a
    // usable bucketing function, so tests can sweep several.
    uint64_t h = g->row_support.Hash() ^ hash_salt;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    std::vector<size_t>& bucket = seen[h];
    TKRGS_DCHECK_SORTED(bucket.begin(), bucket.end(),
                        [](size_t a, size_t b) { return a < b; },
                        "dedup probe order must be scan order, never bucket "
                        "layout");
    bool dup = false;
    for (size_t idx : bucket) {
      if (out[idx]->row_support == g->row_support) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(out.size());  // appended ascending: stays sorted
      out.push_back(g);
    }
  }
  return out;
}

}  // namespace

std::vector<RuleGroupPtr> TopkResult::DistinctGroups(uint64_t hash_salt) const {
  std::vector<const RuleGroupPtr*> candidates;
  for (const auto& list : per_row) {
    for (const RuleGroupPtr& g : list) candidates.push_back(&g);
  }
  return DedupByRowSupport(candidates, hash_salt);
}

std::vector<RuleGroupPtr> TopkResult::GroupsAtRank(uint32_t j,
                                                   uint64_t hash_salt) const {
  TOPKRGS_CHECK(j >= 1, "rank is 1-based");
  std::vector<const RuleGroupPtr*> candidates;
  for (const auto& list : per_row) {
    if (list.size() < j) continue;
    candidates.push_back(&list[j - 1]);
  }
  return DedupByRowSupport(candidates, hash_salt);
}

TopkResult MineTopkRGS(const DiscreteDataset& data, ClassLabel consequent,
                       const TopkMinerOptions& options) {
  TopkSearch search(data, consequent, options);
  return search.Run();
}

}  // namespace topkrgs
