#ifndef TOPKRGS_UTIL_LOCK_RANKS_H_
#define TOPKRGS_UTIL_LOCK_RANKS_H_

#include "util/check.h"

/// Central lock-rank table plus the debug-only deadlock detector behind it
/// (DESIGN.md §12).
///
/// Every long-lived Mutex/SharedMutex in the system is constructed with a
/// rank from the table below. The invariant — checked at runtime in debug
/// builds, compiled out in release — is:
///
///   A thread may only acquire a lock whose rank is STRICTLY GREATER than
///   the rank of every lock it already holds.
///
/// Equal ranks are an inversion too: two locks of the same rank must never
/// be held simultaneously, because nothing orders them against each other. Unranked locks (kUnranked) opt out of
/// the discipline entirely — they neither constrain nor are constrained —
/// which is reserved for locks provably never nested with ranked ones.
///
/// Because the relation is a single global total order, any interleaving
/// of rank-disciplined acquisitions is acyclic, so a rank-clean run can
/// never deadlock on these locks. A violation aborts immediately with the
/// stack captured when the conflicting lock was acquired AND the current
/// stack, so the cycle is diagnosed from one failure, not from a hung
/// process. The checker is ON whenever TKRGS_DCHECKs are (Debug builds and
/// the asan/tsan/lint presets) and costs nothing in release.
namespace topkrgs {
namespace lock_rank {

/// Exempt from rank checking (the default for Mutex/SharedMutex).
inline constexpr int kUnranked = 0;

/// ---- The rank table -------------------------------------------------
/// Ranks increase inward along every permitted acquisition path: hold a
/// lower rank, acquire a higher one; never the reverse. Gaps leave room
/// for future locks without renumbering.

/// HttpServer::conn_mu_ — connection bookkeeping. Outermost: Stop() holds
/// it while waiting for connections, and a connection thread must remain
/// free to use every lock below while the server tracks it.
inline constexpr int kHttpConnTracking = 100;

/// ModelRegistry::mu_ — model resolution. A request path resolves its
/// model before (or while) submitting work, so the registry orders before
/// the executor queue.
inline constexpr int kModelRegistry = 200;

/// PredictionExecutor::mu_ — request queue. Innermost: workers drain
/// under it and then execute lock-free.
inline constexpr int kExecutorQueue = 300;

#if TOPKRGS_DCHECK_IS_ON()
#define TOPKRGS_LOCK_RANK_IS_ON() 1

/// Records `mu` (identity pointer) as held by this thread after checking
/// it against every lock the thread already holds; aborts with both stack
/// traces on a rank inversion. kUnranked locks return immediately.
void OnAcquire(const void* mu, int rank, const char* name);

/// Like OnAcquire but for a successful try-lock: a try-acquisition cannot
/// block, so it is recorded without the inversion check (it still
/// constrains later blocking acquisitions).
void OnTryAcquire(const void* mu, int rank, const char* name);

/// Removes `mu` from this thread's held stack (no-op if absent — e.g. a
/// kUnranked lock, which is never pushed).
void OnRelease(const void* mu);

/// Number of ranked locks the calling thread currently holds (test hook).
int HeldCount();

#else  // !TOPKRGS_DCHECK_IS_ON()
#define TOPKRGS_LOCK_RANK_IS_ON() 0

inline void OnAcquire(const void*, int, const char*) {}
inline void OnTryAcquire(const void*, int, const char*) {}
inline void OnRelease(const void*) {}
inline int HeldCount() { return 0; }

#endif  // TOPKRGS_DCHECK_IS_ON()

}  // namespace lock_rank
}  // namespace topkrgs

#endif  // TOPKRGS_UTIL_LOCK_RANKS_H_
