// Tests of the lock-rank deadlock detector (util/lock_ranks.h, DESIGN.md
// §12): rank-respecting acquisition sequences stay silent, a rank
// inversion (and a same-rank double acquisition) aborts with both stack
// traces, unranked locks are exempt, and the bookkeeping survives
// out-of-order releases and try-locks. The checker is compiled out of
// release builds; every runtime expectation gates on
// TOPKRGS_LOCK_RANK_IS_ON().
#include <gtest/gtest.h>

#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace topkrgs {
namespace {

#if TOPKRGS_LOCK_RANK_IS_ON()

TEST(LockRankTest, IncreasingRanksAreSilent) {
  Mutex outer(lock_rank::kHttpConnTracking, "outer");
  Mutex inner(lock_rank::kModelRegistry, "inner");
  Mutex leaf(lock_rank::kExecutorQueue, "leaf");
  EXPECT_EQ(lock_rank::HeldCount(), 0);
  outer.Lock();
  inner.Lock();
  leaf.Lock();
  EXPECT_EQ(lock_rank::HeldCount(), 3);
  leaf.Unlock();
  inner.Unlock();
  outer.Unlock();
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

TEST(LockRankDeathTest, InversionAborts) {
  Mutex registry(lock_rank::kModelRegistry, "ModelRegistry::mu_");
  Mutex queue(lock_rank::kExecutorQueue, "PredictionExecutor::mu_");
  EXPECT_DEATH(
      {
        MutexLock hold_queue(queue);
        MutexLock hold_registry(registry);  // 200 after 300: inversion
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, SameRankAborts) {
  // Two same-ranked locks held together have no order between them —
  // the strict-increase rule treats equality as an inversion.
  Mutex queue_a(lock_rank::kExecutorQueue, "queue_a");
  Mutex queue_b(lock_rank::kExecutorQueue, "queue_b");
  EXPECT_DEATH(
      {
        MutexLock hold_a(queue_a);
        MutexLock hold_b(queue_b);
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, SharedAcquisitionChecksLikeExclusive) {
  SharedMutex registry(lock_rank::kModelRegistry, "registry");
  Mutex conn(lock_rank::kHttpConnTracking, "conn");
  EXPECT_DEATH(
      {
        ReaderMutexLock read(registry);
        MutexLock hold(conn);  // 100 after 200, even under a reader lock
      },
      "lock rank inversion");
}

TEST(LockRankTest, SharedThenHigherExclusiveIsSilent) {
  SharedMutex registry(lock_rank::kModelRegistry, "registry");
  Mutex queue(lock_rank::kExecutorQueue, "queue");
  ReaderMutexLock read(registry);
  MutexLock hold(queue);
  EXPECT_EQ(lock_rank::HeldCount(), 2);
}

TEST(LockRankTest, UnrankedLocksAreExempt) {
  Mutex unranked_a;
  Mutex ranked(lock_rank::kExecutorQueue, "ranked");
  Mutex unranked_b;
  MutexLock a(unranked_a);
  MutexLock r(ranked);
  // An unranked lock under a ranked one does not trip the checker (and is
  // never pushed).
  MutexLock b(unranked_b);
  EXPECT_EQ(lock_rank::HeldCount(), 1);
}

TEST(LockRankTest, OutOfOrderReleaseUnwindsByIdentity) {
  Mutex outer(lock_rank::kHttpConnTracking, "outer");
  Mutex inner(lock_rank::kModelRegistry, "inner");
  outer.Lock();
  inner.Lock();
  outer.Unlock();  // release the OLDER lock first
  EXPECT_EQ(lock_rank::HeldCount(), 1);
  // With only rank-200 held, a fresh rank-300 acquisition must pass.
  Mutex leaf(lock_rank::kExecutorQueue, "leaf");
  leaf.Lock();
  leaf.Unlock();
  inner.Unlock();
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

TEST(LockRankTest, TryLockRecordsWithoutChecking) {
  Mutex queue(lock_rank::kExecutorQueue, "queue");
  Mutex registry(lock_rank::kModelRegistry, "registry");
  MutexLock hold(queue);
  // A try-acquisition cannot block, so acquiring DOWN-rank via TryLock is
  // permitted...
  ASSERT_TRUE(registry.TryLock());
  EXPECT_EQ(lock_rank::HeldCount(), 2);
  registry.Unlock();
  EXPECT_EQ(lock_rank::HeldCount(), 1);
}

TEST(LockRankDeathTest, TryLockStillConstrainsLaterAcquisitions) {
  Mutex queue(lock_rank::kExecutorQueue, "queue");
  Mutex registry(lock_rank::kModelRegistry, "registry");
  EXPECT_DEATH(
      {
        if (queue.TryLock()) {
          MutexLock hold(registry);  // blocking 200 while holding 300
        }
      },
      "lock rank inversion");
}

#else  // !TOPKRGS_LOCK_RANK_IS_ON()

TEST(LockRankTest, CompiledOutInRelease) {
  // Ranked construction must still compile and behave as a plain mutex.
  Mutex ranked(lock_rank::kExecutorQueue, "ranked");
  ranked.Lock();
  ranked.Unlock();
  EXPECT_EQ(lock_rank::HeldCount(), 0);
  GTEST_SKIP() << "lock-rank checker is compiled out (TOPKRGS_ENABLE_DCHECK "
                  "off); run under the tsan/lint/Debug presets";
}

#endif  // TOPKRGS_LOCK_RANK_IS_ON()

}  // namespace
}  // namespace topkrgs
