#ifndef TOPKRGS_UTIL_TIMER_H_
#define TOPKRGS_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace topkrgs {

/// Wall-clock stopwatch used by the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft wall-clock budget that long-running miners poll; lets benchmark
/// drivers report DNF ("did not finish", as the paper does for CHARM and
/// CLOSET+) instead of hanging.
class Deadline {
 public:
  /// Unlimited deadline.
  Deadline() : enabled_(false) {}
  /// Expires `seconds` from now. A budget that is not positive, not
  /// finite (NaN included) or past half the clock's remaining range
  /// (over a century) is unlimited: converting it to clock ticks would
  /// overflow.
  explicit Deadline(double seconds) : enabled_(false) {
    const Clock::time_point now = Clock::now();
    const double range =
        std::chrono::duration<double>(Clock::time_point::max() - now).count();
    if (seconds > 0 && seconds < range / 2) {
      enabled_ = true;
      expiry_ = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    }
  }

  static Deadline Unlimited() { return Deadline(); }

  bool Expired() const { return enabled_ && Clock::now() >= expiry_; }

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point expiry_{};
};

}  // namespace topkrgs

#endif  // TOPKRGS_UTIL_TIMER_H_
