// Hot-path purity CLEAN fixture for tools/lint/astlint.py --self-test.
// NEVER COMPILED: the mirror image of hotpath_fixture.cc — annotated hot
// roots whose entire reachable region is pure, plus the shapes the
// analyzer must NOT flag: word-level set algebra, a cold allocator that
// no hot root reaches, elision-friendly prvalue initialization, and a
// justified NOLINT block. The self-test requires exactly zero findings
// here.

#include "util/hot_path.h"

namespace lint_fixture_clean {

class Bitset {
 public:
  unsigned long long word(int i) const { return words_[i]; }

 private:
  unsigned long long words_[4];
};

class Counter {
 public:
  TKRGS_HOT unsigned long long HotCount(const Bitset& a,
                                        const Bitset& b) const {
    unsigned long long total = 0;
    for (int w = 0; w < 4; ++w) {
      total += Popcount(a.word(w) & b.word(w));
    }
    return total;
  }

  TKRGS_HOT void HotEmit(unsigned long long v) {
    // Emission is bounded by k results per run and sits outside the
    // per-node inner loop, so the amortized growth is sanctioned.
    // NOLINT(hotpath: O(k) emissions per run, outside the per-node loop)
    out_.push_back(v);
  }

  // Cold: allocates freely, but no TKRGS_HOT root reaches it.
  void ColdReserve() { out_.reserve(1024); }

 private:
  static unsigned long long Popcount(unsigned long long w) {
    unsigned long long n = 0;
    while (w != 0) {
      w &= w - 1;
      ++n;
    }
    return n;
  }

  std::vector<unsigned long long> out_;
};

}  // namespace lint_fixture_clean
