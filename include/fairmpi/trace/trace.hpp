// Lightweight event tracing for the real engine.
//
// A fixed-capacity ring of 24-byte entries per tracer; recording is a
// relaxed-atomic slot claim plus three stores, cheap enough to leave
// compiled in (it is gated by an enabled flag that defaults to off, so the
// steady-state cost is one relaxed load). Intended for debugging engine
// behaviour that SPC aggregates hide — e.g. *when* a burst of
// out-of-sequence buffering happened, or the interleaving of sends across
// instances.
//
// The ring overwrites oldest entries; snapshot() returns the surviving
// window in chronological order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "fairmpi/common/align.hpp"

namespace fairmpi::trace {

/// The trace events, one row each: X(name, meaning of a, meaning of b).
/// The enumerator is k<name> and event_name() returns "<name>"; None marks
/// a slot nothing was recorded in.
#define FAIRMPI_TRACE_EVENTS(X)                                      \
  X(None, "-", "-")                                                  \
  X(Send, "destination rank", "tag")                                 \
  X(RecvPost, "source filter (+1, 0 = ANY)", "tag filter")           \
  X(RecvDone, "source rank", "tag")                                  \
  X(Progress, "completions harvested", "-")                          \
  X(RmaPut, "target rank", "low 32 bits of size")                    \
  X(RmaGet, "target rank", "low 32 bits of size")                    \
  X(RmaFlush, "pending ops at entry", "-")                           \
  X(RndvRts, "destination rank", "low 32 bits of total")             \
  X(RndvDone, "peer rank", "low 32 bits of total")                   \
  X(Retransmit, "peer rank", "packet seq")                           \
  X(AckSent, "peer rank", "cumulative seq acked (reliability)")      \
  X(AckRecv, "peer rank", "cumulative seq acked (reliability)")      \
  X(CsumDrop, "peer rank", "packet seq (checksum fault dropped)")    \
  X(CriDrain, "instance index", "batch size (packets+completions)")  \
  X(PeerSuspect, "peer rank", "1 entered suspect / 0 recovered")     \
  X(PeerDead, "peer rank", "detection latency (ms)")                 \
  X(CommRevoke, "communicator id", "posted receives failed")         \
  X(OverloadPause, "source rank", "packet seq (held at the cap)")    \
  X(Cancel, "peer rank (+1, 0 = ANY)", "tag")                        \
  X(Deadline, "peer rank (+1, 0 = ANY)", "tag")                      \
  X(CollOp, "collective op id (coll::detail)", "tag lane")

enum class Event : std::uint8_t {
#define FAIRMPI_TRACE_ENUM(name, a, b) k##name,
  FAIRMPI_TRACE_EVENTS(FAIRMPI_TRACE_ENUM)
#undef FAIRMPI_TRACE_ENUM
};

struct EventInfo {
  const char* name;
  const char* a;  ///< what Entry::a holds
  const char* b;  ///< what Entry::b holds
};

inline constexpr EventInfo kEvents[] = {
#define FAIRMPI_TRACE_INFO(name, a, b) {#name, a, b},
    FAIRMPI_TRACE_EVENTS(FAIRMPI_TRACE_INFO)
#undef FAIRMPI_TRACE_INFO
};

/// Event name ("Send", ...); "Unknown" out of range.
constexpr const char* event_name(Event e) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < std::size(kEvents) ? kEvents[i].name : "Unknown";
}

/// Per-thread attribution for exported traces: the recording thread's slot
/// (common/thread_slot.hpp), or kNoTraceTid for unregistered threads.
inline constexpr std::uint16_t kNoTraceTid = 0xFFFF;

struct Entry {
  std::uint64_t timestamp_ns = 0;
  Event event = Event::kNone;
  std::uint16_t tid = kNoTraceTid;  ///< fits the struct's former padding
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

class Tracer {
 public:
  /// Capacity is rounded up to a power of two; 0 keeps tracing compiled
  /// but permanently disabled (no ring allocated).
  explicit Tracer(std::size_t capacity = 0);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Toggle recording. No-op (stays disabled) when capacity is 0.
  void enable(bool on) noexcept {
    enabled_.store(on && capacity_ != 0, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Record one event (thread-safe, wait-free). Dropped without trace if
  /// the ring has wrapped onto a slot whose writer is still mid-flight —
  /// the entry a full ring would have overwritten moments later anyway.
  void record(Event event, std::uint32_t a = 0, std::uint32_t b = 0) noexcept;

  /// Chronological copy of the surviving entries. Exact only when no
  /// thread is concurrently recording (entries mid-write may be skipped).
  std::vector<Entry> snapshot() const;

  /// Human-readable dump of snapshot().
  void dump(std::ostream& os) const;

  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> sequence{0};  ///< odd while being written
    Entry entry{};
  };

  const std::size_t capacity_;  // power of two (or 0)
  const std::size_t mask_;
  std::vector<Slot> slots_;
  std::atomic<bool> enabled_{false};
  alignas(kCacheLine) std::atomic<std::uint64_t> next_{0};
};

}  // namespace fairmpi::trace
