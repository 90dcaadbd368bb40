// Hot-path purity hazard fixture for tools/lint/astlint.py --self-test.
// NEVER COMPILED: this file exists so the gate can demonstrate, on every
// run, that it still catches each hazard class transitively through the
// call graph, honors the justified-NOLINT escape, and ignores identical
// hazards in cold code. Every hazard line carries an inline
// EXPECT-FINDING marker naming the check(s) the analyzer must produce
// for that exact line; the self-test fails on both missing and
// unexpected findings.

#include "util/hot_path.h"

namespace lint_fixture {

// Stub expensive types — astlint matches them by name.
class Bitset {
 public:
  Bitset() {}
  void Set(unsigned i) { words_[i >> 6] |= 1ull << (i & 63u); }

 private:
  unsigned long long words_[4];
};

class RowSet {
 public:
  unsigned Count() const { return count_; }

 private:
  unsigned count_;
};

// Stub ranked-mutex surface: a hot region may take no lock, whatever its
// rank.
struct Mutex {
  Mutex(int rank, const char* label) {}
};
struct MutexLock {
  explicit MutexLock(Mutex& mu) {}
};

struct Status {
  static Status Invalid(const char* m) { return Status(); }
};

class Sink {
 public:
  // Cold twin: the same hazards as HotLoop, reachable from no TKRGS_HOT
  // root, must produce nothing.
  void ColdPrepare() {
    scratch_ = new unsigned[64];
    ids_.push_back(7);
    MutexLock lock(reg_mu_);
  }

  TKRGS_HOT void HotLoop(const RowSet& rows, Bitset items) {  // EXPECT-FINDING: hot-copy
    unsigned* p = new unsigned[8];  // EXPECT-FINDING: hot-alloc
    ids_.push_back(3);              // EXPECT-FINDING: hot-alloc
    MutexLock bad(reg_mu_);         // EXPECT-FINDING: hot-lock
    MutexLock inner(queue_mu_);     // EXPECT-FINDING: hot-lock
    std::this_thread::yield();      // EXPECT-FINDING: hot-blocking
    RowSet copy = cached_;          // EXPECT-FINDING: hot-alloc,hot-copy
    Helper();
    Justified();  // NOLINT(hotpath: warm-up outside the timed region)
    Unjustified();  // NOLINT(hotpath)  EXPECT-FINDING: nolint-needs-justification
    (void)p;
    (void)rows;
    (void)items;
  }

  TKRGS_HOT Status HotValidate(unsigned n) {
    if (n > 7u) {
      return Status::Invalid("bad " + std::to_string(n));  // EXPECT-FINDING: hot-status-format
    }
    throw 42;  // EXPECT-FINDING: hot-status-format
  }

  TKRGS_HOT RowSet HotBuild() {
    RowSet local;
    return std::move(local);  // EXPECT-FINDING: hot-copy
  }

  // Reached only through HotLoop: the finding lands here, in the callee,
  // proving the walk is transitive rather than per-function.
  void Helper() {
    buffer_.reserve(128);  // EXPECT-FINDING: hot-alloc
  }

  // The justified call-site NOLINT in HotLoop prunes this whole chain.
  void Justified() { tmp_.push_back(0); }

  // The bare call-site NOLINT also prunes (the bare marker itself is the
  // failure, reported where it appears).
  void Unjustified() { tmp_.push_back(1); }

 private:
  Mutex reg_mu_{lock_rank::kModelRegistry, "Sink::reg_mu_"};
  Mutex queue_mu_{lock_rank::kExecutorQueue, "Sink::queue_mu_"};
  std::vector<unsigned> ids_;
  std::vector<unsigned> buffer_;
  std::vector<unsigned> tmp_;
  RowSet cached_;
  unsigned* scratch_ = nullptr;
};

// Hot DECLARATION in the class, definition out of line: the annotation
// must carry from the prototype to the definition's body.
class Forward {
 public:
  TKRGS_HOT void Run();

 private:
  std::vector<int> q_;
};

void Forward::Run() {
  q_.push_back(9);  // EXPECT-FINDING: hot-alloc
}

}  // namespace lint_fixture
