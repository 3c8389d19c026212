// Lock-free MPSC submission ring (DESIGN.md §5f).
//
// The CRI injection path used to serialize every producer on the instance
// lock even when the critical section was one endpoint try_send. This ring
// moves the producer side off the lock: a contended sender claims a slot
// with a single CAS, writes a descriptor pointing at its (stack-resident)
// packet and completion ticket, publishes via the slot's sequence number,
// and waits on the ticket. Whoever holds the instance lock next — a
// progress thread, the RMA flush path, or one of the waiting producers
// electing itself by try_lock — drains the ring under the lock and injects
// on the producers' behalf (a combining funnel: one lock acquisition
// retires many submissions). Producers therefore never *require* a
// consumer: self-election bounds their wait. Progress threads find queued
// descriptors through the context's work word, which
// CommResourceInstance::inject rings after every publish (fabric.hpp).
//
// The descriptor transfer is the same Vyukov bounded-queue protocol as
// MpscRing (mpsc_ring.hpp); it is restated here — rather than reusing the
// template — because the submission protocol needs producer-side CAS-retry
// accounting, and because this file is the documented home of the
// memory-ordering argument the lock-free injection path rests on.
//
// Ordering argument (every atomic below cites one of these edges):
//   [P1] claim      tail_.compare_exchange(pos, pos+1, relaxed) — claiming
//                   only *reserves* the slot; nothing is published by the
//                   CAS itself, so it carries no ordering. Uniqueness of
//                   pos is the CAS's atomicity, not its memory order.
//   [P2] fill       desc plain store — the slot is exclusively owned
//                   between claim and publish; no other thread reads it.
//   [P3] publish    cell.seq.store(pos+1, release) — makes [P2] visible to
//                   the consumer whose matching load is [C1].
//   [C1] observe    cell.seq.load(acquire) == pos+1 — pairs with [P3]: the
//                   consumer that sees the published seq sees the whole
//                   descriptor, including everything the producer wrote to
//                   *pkt before submitting.
//   [C2] recycle    cell.seq.store(pos+capacity, release) — returns the
//                   slot to producers; pairs with the acquire seq load in
//                   try_push so a producer lapping the ring sees the slot
//                   is consumed before overwriting it.
//   [T1] resolve    ticket.store(release) by the flusher after the packet
//                   has been consumed (or handed back); pairs with the
//                   producer's acquire load in wait loops. After [T1] the
//                   flusher never touches the descriptor, the ticket, or
//                   the packet again — that is what makes the producer's
//                   stack storage safe to reclaim on return.
//
// Single-consumer discipline: drain() must run under the owning CRI's
// instance lock, exactly like MpscRing::try_pop_n — the lock is the
// consumer-side capability, enforced one level up where
// CommResourceInstance::flush_submissions() is FAIRMPI_REQUIRES(lock_).
#pragma once

#include <atomic>
#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::fabric {

/// Producer-side completion state, polled (acquire) by the submitting
/// thread and resolved (release, [T1]) by whichever thread flushes the
/// descriptor under the instance lock.
enum class SubmitStatus : std::uint8_t {
  kPending = 0,      ///< descriptor in flight
  kInjected = 1,     ///< packet delivered to the fabric
  kBackpressure = 2, ///< destination ring full; packet handed back intact
};

/// Lives on the producer's stack for the duration of one submission. The
/// producer must not return (and so must not reclaim the storage) until
/// the status leaves kPending.
struct SubmitTicket {
  std::atomic<std::uint8_t> status{static_cast<std::uint8_t>(SubmitStatus::kPending)};

  SubmitStatus load_acquire() const noexcept {
    // Pairs with [T1]: seeing kBackpressure implies the flusher's failed
    // try_send (which left *pkt intact) happened-before this load, so the
    // producer may immediately reuse the packet.
    return static_cast<SubmitStatus>(status.load(std::memory_order_acquire));
  }
};

/// What travels through the ring: pointers into the producer's frame plus
/// the destination rank. Trivially copyable by design — the packet itself
/// never moves through the ring, only its address does, so a submission
/// costs one CAS + 16 bytes of plain stores regardless of payload size.
struct SubmitDesc {
  Packet* pkt = nullptr;
  SubmitTicket* ticket = nullptr;
  std::int32_t dst = -1;
};

/// What one try_push observed, for the SPC/obs counters at the call site.
struct SubmitPushOutcome {
  bool ok = false;                ///< false: ring full (caller falls back)
  std::uint32_t cas_retries = 0;  ///< failed tail CAS attempts (collisions)
};

class SubmitRing {
 public:
  /// Capacity is rounded up to a power of two; minimum 2.
  explicit SubmitRing(std::size_t capacity)
      : capacity_(next_pow2(capacity < 2 ? 2 : capacity)),
        mask_(capacity_ - 1),
        cells_(new Cell[capacity_]) {  // lint: allow(hotpath-alloc) ctor
    for (std::size_t i = 0; i < capacity_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  ~SubmitRing() { delete[] cells_; }

  SubmitRing(const SubmitRing&) = delete;
  SubmitRing& operator=(const SubmitRing&) = delete;

  /// Producer: claim + fill + publish. Any number of threads may call this
  /// concurrently; the instance lock is NOT required (that is the point).
  SubmitPushOutcome try_push(const SubmitDesc& d) noexcept {
    SubmitPushOutcome out;
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      // Acquire pairs with [C2]: a slot whose seq shows "free again" is
      // only reused once the previous descriptor was fully consumed.
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // [P1] claim: relaxed is sufficient — the CAS only allocates pos
        // to this producer; publication is [P3] below.
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.desc = d;  // [P2] fill: slot exclusively ours until publish
          // [P3] publish: release makes the descriptor (and the packet
          // contents it points to) visible to the [C1] acquire in drain().
          cell.seq.store(pos + 1, std::memory_order_release);
          out.ok = true;
          return out;
        }
        ++out.cas_retries;  // lost the claim race; pos was refreshed
      } else if (dif < 0) {
        return out;  // full: caller falls back to the blocking-lock path
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer: pop every published descriptor (bounded by capacity) and
  /// hand each to `fn`. Single-consumer: callers must hold the owning
  /// CRI's instance lock (see header comment). `fn` is responsible for
  /// resolving each descriptor's ticket ([T1]) — after fn returns the
  /// slot is recycled and the descriptor must not be touched again.
  template <typename Fn>
  std::size_t drain(Fn&& fn) noexcept {
    const std::uint64_t pos = head_;
    std::size_t n = 0;
    while (n < capacity_) {
      Cell& cell = cells_[(pos + n) & mask_];
      // [C1]: acquire pairs with [P3] — past this load the descriptor and
      // the producer-side packet it points at are fully visible.
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq != pos + n + 1) break;  // publish frontier reached
      const SubmitDesc d = cell.desc;
      // [C2]: recycle the slot before running fn — fn resolves the ticket,
      // and the producer may submit again the instant it sees that, so the
      // slot must already be reusable.
      cell.seq.store(pos + n + capacity_, std::memory_order_release);
      fn(d);
      ++n;
    }
    head_ = pos + n;  // plain: single consumer, serialized by the CRI lock
    return n;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    SubmitDesc desc{};
  };

  static std::size_t next_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  Cell* cells_;
  /// Producers' claim cursor [P1]; its own line — this is the only line
  /// contended producers write.
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  /// Consumer cursor: non-atomic on purpose — written and read only under
  /// the instance lock (single-consumer discipline).
  alignas(kCacheLine) std::uint64_t head_ = 0;
};

}  // namespace fairmpi::fabric
