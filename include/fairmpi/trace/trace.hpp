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
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fairmpi/common/align.hpp"

namespace fairmpi::trace {

enum class Event : std::uint8_t {
  kNone = 0,
  kSend,        ///< a = destination rank, b = tag
  kRecvPost,    ///< a = source filter (+1, 0 = ANY), b = tag filter
  kRecvDone,    ///< a = source rank, b = tag
  kProgress,    ///< a = completions harvested
  kRmaPut,      ///< a = target rank, b = low 32 bits of size
  kRmaGet,      ///< a = target rank, b = low 32 bits of size
  kRmaFlush,    ///< a = pending ops at entry
  kRndvRts,     ///< a = destination rank, b = low 32 bits of total
  kRndvDone,    ///< a = peer rank, b = low 32 bits of total
  kRetransmit,  ///< a = peer rank, b = packet seq
  kAckSent,     ///< a = peer rank, b = cumulative seq acked (reliability)
  kAckRecv,     ///< a = peer rank, b = cumulative seq acked (reliability)
  kCsumDrop,    ///< a = peer rank, b = packet seq (checksum fault dropped)
  kCriDrain,    ///< a = instance index, b = batch size (packets+completions)
  kPeerSuspect, ///< a = peer rank, b = 1 entered suspect / 0 recovered
  kPeerDead,    ///< a = peer rank, b = detection latency (ms)
  kCommRevoke,  ///< a = communicator id, b = posted receives failed
  kOverloadPause,  ///< a = source rank, b = packet seq (refusal at the cap)
  kCancel,         ///< a = peer rank (+1, 0 = ANY), b = tag
  kDeadline,       ///< a = peer rank (+1, 0 = ANY), b = tag
  kCollOp,         ///< a = collective op id (coll::detail), b = tag lane
};

const char* event_name(Event e) noexcept;

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
