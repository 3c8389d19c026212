// Wall-clock timing utilities for the real backend and the benches.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace fairmpi {

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Due time of a service with nothing scheduled.
inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

/// Lower a due-time gate to `t` (atomic min); never raises it. Relaxed: the
/// caller orders it after publishing the work that is due (DESIGN.md
/// "Progress service step").
inline void lower_due(std::atomic<std::uint64_t>& gate, std::uint64_t t) noexcept {
  std::uint64_t cur = gate.load(std::memory_order_relaxed);
  while (t < cur && !gate.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
  }
}

/// Cheap cycle counter for hot-path interval timing.
///
/// The match path times its critical sections for the kMatchTimeNs SPC
/// (paper Table II). clock_gettime — even through the vDSO — costs ~20-60 ns
/// per read, so on x86-64 we read the TSC instead (invariant/constant-rate
/// on every microarchitecture we target) and convert to nanoseconds only
/// when the counter is *read*, off the hot path. Other architectures fall
/// back to the monotonic clock. Even a TSC read costs ~25 ns, so hot paths
/// time only the intervals a CycleSampler picks.
class CycleClock {
 public:
  static std::uint64_t now() noexcept {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return now_ns();
#endif
  }

  /// Convert a cycle delta to nanoseconds. Calibrated once per process
  /// against the monotonic clock (~0.1% accuracy — SPC-grade, not
  /// benchmark-grade).
  static std::uint64_t to_ns(std::uint64_t cycles) noexcept {
#if defined(__x86_64__)
    return static_cast<std::uint64_t>(static_cast<double>(cycles) * ns_per_cycle());
#else
    return cycles;
#endif
  }

 private:
#if defined(__x86_64__)
  static double ns_per_cycle() noexcept {
    static const double ratio = [] {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t c0 = __builtin_ia32_rdtsc();
      // ~2 ms busy window: long enough to swamp the two clock reads.
      while (now_ns() - t0 < 2'000'000) {
      }
      const std::uint64_t c1 = __builtin_ia32_rdtsc();
      const std::uint64_t t1 = now_ns();
      return c1 > c0 ? static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0) : 1.0;
    }();
    return ratio;
  }
#endif
};

/// Picks which intervals of a stream to time: the first always, then each
/// one with probability 1/kPeriod from a xorshift64 draw. A random pick,
/// not a fixed every-kPeriod-th stride, so a periodic workload (Multirate's
/// 128-receive windows) cannot alias with it and time the same positions.
///
/// weight() is what a picked interval's cycles count for in the total, the
/// inverse of its pick probability: 1 for the first, kPeriod for a random
/// pick, 0 for an interval that is not timed. So the weighted sum is an
/// unbiased estimate of the time of every interval.
///
/// Not thread-safe: its owner guards it (MatchEngine: under the match lock).
class CycleSampler {
 public:
  static constexpr int kPeriodLog2 = 6;
  static constexpr std::uint32_t kPeriod = 1u << kPeriodLog2;  ///< 64

  explicit CycleSampler(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept
      : state_(seed != 0 ? seed : 1) {}

  std::uint32_t weight() noexcept {
    if (first_) {
      first_ = false;
      return 1;
    }
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    // The top kPeriodLog2 bits are all zero with probability 1/kPeriod.
    return (state_ >> (64 - kPeriodLog2)) == 0 ? kPeriod : 0;
  }

 private:
  std::uint64_t state_;
  bool first_ = true;
};

/// Times one scope if `sampler` picks it and adds its weighted cycles to
/// `sink` (convert with CycleClock::to_ns when reporting). A scope that is
/// not picked reads no clock and adds nothing. Used under the matching
/// lock, so a non-atomic accumulator is race-free by construction.
class SampledCycles {
 public:
  SampledCycles(CycleSampler& sampler, std::uint64_t& sink) noexcept
      : sink_(sink), weight_(sampler.weight()), start_(weight_ != 0 ? CycleClock::now() : 0) {}
  SampledCycles(const SampledCycles&) = delete;
  SampledCycles& operator=(const SampledCycles&) = delete;
  ~SampledCycles() {
    if (weight_ != 0) sink_ += (CycleClock::now() - start_) * weight_;
  }

 private:
  std::uint64_t& sink_;
  std::uint32_t weight_;
  std::uint64_t start_;
};

/// Simple stopwatch for bench loops.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() noexcept { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  double elapsed_s() const noexcept { return static_cast<double>(elapsed_ns()) * 1e-9; }

 private:
  std::uint64_t start_;
};

}  // namespace fairmpi
