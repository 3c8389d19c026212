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
/// The match path times every critical section for the kMatchTimeNs SPC
/// (paper Table II). clock_gettime — even through the vDSO — costs ~20 ns
/// per read; with two reads per post() and two per incoming() that was a
/// third of the whole in-order matching cost (bench_ablation_matching).
/// On x86-64 we read the TSC instead (invariant/constant-rate on every
/// microarchitecture we target) and convert to nanoseconds only when the
/// counter is *read*, off the hot path. Other architectures fall back to
/// the monotonic clock.
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

/// Accumulates elapsed *cycles* into a plain counter (convert with
/// CycleClock::to_ns when reporting). Used under the matching lock, so a
/// non-atomic accumulator is race-free by construction.
class ScopedCycles {
 public:
  explicit ScopedCycles(std::uint64_t& sink) noexcept
      : sink_(sink), start_(CycleClock::now()) {}
  ScopedCycles(const ScopedCycles&) = delete;
  ScopedCycles& operator=(const ScopedCycles&) = delete;
  ~ScopedCycles() { sink_ += CycleClock::now() - start_; }

 private:
  std::uint64_t& sink_;
  std::uint64_t start_;
};

/// Accumulates elapsed time into a plain counter; used by the SPC match-time
/// counter, which is only ever updated while the matching lock is held (so a
/// non-atomic accumulator is race-free by construction).
class ScopedElapsed {
 public:
  explicit ScopedElapsed(std::uint64_t& sink) noexcept : sink_(sink), start_(now_ns()) {}
  ScopedElapsed(const ScopedElapsed&) = delete;
  ScopedElapsed& operator=(const ScopedElapsed&) = delete;
  ~ScopedElapsed() { sink_ += now_ns() - start_; }

 private:
  std::uint64_t& sink_;
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
