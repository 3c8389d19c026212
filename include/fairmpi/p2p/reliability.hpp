// Ack/retransmit reliability protocol (sender side).
//
// With fault injection enabled the fabric may drop, duplicate, corrupt or
// reorder packets; this tracker gives every reliable packet at-least-once
// delivery (the matching/rendezvous layers' dedup makes it exactly-once):
//
//   sender                              receiver
//   ──────                              ────────
//   track(clone) BEFORE injecting  ──►  validate + verify checksum, then
//   (so a racing ack never beats        ack *every* accepted packet
//   the bookkeeping)                    (Opcode::kAck echoing the key) —
//   ack arrives: entry retired   ◄──    duplicates are re-acked, because
//   timeout: clone re-injected,         the previous ack may be the loss
//     rto doubling per retry
//     (msgrate backoff idiom) up to
//     rto_max; after max_retries the
//     entry fails typed (common::Error)
//
// The key {opcode, peer, comm, seq, imm} uniquely identifies every packet
// kind on the wire: eager/RTS by their matching seq, RndvAck by the sender
// cookie in imm, RndvData by the receiver cookie + fragment index. Acks
// themselves are never tracked — a lost ack is recovered by retransmit +
// duplicate-discard + re-ack. One kAck may name a run of consecutive seqs
// of one stream (kMaxAckRun; DESIGN.md §5c "Ranged acks"), retired by
// ack_range.
//
// The retransmit master is a clone of the wire packet: it shares the
// payload buffer (fabric::clone_packet), so tracking costs no copy and no
// pool charge, and so do the sweep's retransmits.
//
// Storage: each shard is a flat open-addressing table (linear probing,
// backward-shift erase) with the entries inline, grown by doubling, so
// steady-state tracking allocates nothing (DESIGN.md §5c "Tracker table").
//
// Lock discipline: the table is split into kShards shards by stream (peer,
// comm), each with its own lock of rank kReliability (47) — *above* the CRI
// and match locks, because track() runs on the send path under them, and
// *below* the rendezvous registries. No two shard locks are ever held at
// once: sweep() and fail_peer() take them in turn. sweep() only collects
// clones under a shard lock; the caller re-injects after releasing it
// (injection takes CRI locks, rank 20, which must never be acquired under
// this one).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::p2p {

/// Identity of one reliable packet in flight.
struct PacketKey {
  std::uint16_t opcode = 0;
  std::uint16_t peer = 0;  ///< destination rank
  std::uint32_t comm = 0;
  std::uint32_t seq = 0;
  std::uint64_t imm = 0;

  bool operator==(const PacketKey&) const noexcept = default;
};

struct PacketKeyHash {
  std::size_t operator()(const PacketKey& k) const noexcept {
    // splitmix64-style finalizer over the packed fields.
    std::uint64_t x = (static_cast<std::uint64_t>(k.opcode) << 48) ^
                      (static_cast<std::uint64_t>(k.peer) << 32) ^ k.comm;
    x ^= (static_cast<std::uint64_t>(k.seq) << 32) ^ k.imm ^ 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Key of an outbound packet (tracked at the sender).
inline PacketKey key_of(int dst, const fabric::WireHeader& h) noexcept {
  return PacketKey{static_cast<std::uint16_t>(h.opcode),
                   static_cast<std::uint16_t>(dst), h.comm_id, h.seq, h.imm};
}

/// Longest run of consecutive seqs one kAck may name: the receiver never
/// extends a queued run past it, and the sender drops a kAck whose count is
/// 0 or above it as a header drop.
inline constexpr std::uint32_t kMaxAckRun = 64;

/// Key echoed by an inbound ack: the acked opcode rides in hdr.tag, the
/// peer is the ack's sender (the original destination). For a kAck this is
/// the first key of its run.
inline PacketKey key_of_ack(const fabric::WireHeader& ack) noexcept {
  return PacketKey{static_cast<std::uint16_t>(ack.tag), ack.src_rank,
                   ack.comm_id, ack.seq, ack.imm};
}

class ReliabilityTracker {
 public:
  /// `due` is the retransmit due time shared by every tracker of a
  /// universe: track() and confirm_retransmit() lower it, under the
  /// entry's shard lock, to the entry's deadline (DESIGN.md "Progress
  /// service step").
  ReliabilityTracker(std::uint64_t rto_ns, std::uint64_t rto_max_ns, int max_retries,
                     std::atomic<std::uint64_t>& due);
  ReliabilityTracker(const ReliabilityTracker&) = delete;
  ReliabilityTracker& operator=(const ReliabilityTracker&) = delete;

  /// Register a packet about to be injected, keeping a clone that shares
  /// its payload as the retransmit master. MUST happen before the
  /// injection so an immediate ack finds the entry.
  void track(int dst, const fabric::Packet& pkt, std::uint64_t now_ns);

  /// Retire the entry an ack names. False when unknown (already acked —
  /// the ack of a duplicate).
  bool ack(const PacketKey& key) { return ack_range(key, 1) != 0; }

  /// Retire the run a ranged ack names: `first` and the next `count - 1`
  /// seqs of its stream (same opcode, peer, comm and imm), under one shard
  /// lock. Returns how many were still tracked.
  std::size_t ack_range(const PacketKey& first, std::uint32_t count);

  /// Remove a tracked entry whose injection ultimately failed (EAGAIN
  /// budget exhausted before the packet ever hit the wire).
  void untrack(const PacketKey& key) { (void)ack(key); }

  /// The receiver refused the packet at admission (Opcode::kNack,
  /// DESIGN.md §5h): retire the entry like an ack, but report it so the
  /// caller fails the op typed kReceiverOverloaded. False when the entry
  /// is unknown (a re-NACK of an already-failed shed, or an ack raced in).
  /// `out` (may be null) receives the failure record.
  struct Failure;
  bool nack(const PacketKey& key, Failure* out);

  /// The receiver deferred the packet at its park limit (Opcode::kDefer,
  /// DESIGN.md §5h): it arrived, so refund the retry its transmission was
  /// charged and re-present it one base rto from now. No-op when unknown.
  void defer(const PacketKey& key, std::uint64_t now_ns);

  struct Resend {
    int dst = 0;
    fabric::Packet pkt;
  };
  struct Failure {
    PacketKey key;
    int retries = 0;
    /// Why the entry failed: kRetryExhausted for ordinary timeout, or
    /// kPeerFailed when the destination was confirmed dead (fail_peer).
    common::ErrorCode code = common::ErrorCode::kRetryExhausted;
  };

  /// Collect expired entries: clones to re-inject into `resends` and
  /// retry-exhausted entries — removed from the table — into `failures`.
  /// Sweeping only *claims* an entry (its deadline moves one rto out); the
  /// retry budget and the exponential backoff are charged by
  /// confirm_retransmit once the clone actually made it onto the wire.
  /// A retransmit that dies on a full ring costs nothing — under
  /// backpressure storms the budget must measure genuine losses, not the
  /// sender's own congestion, or entries exhaust and messages vanish.
  /// Walks the shards in turn; caller injects with no tracker lock held.
  /// Returns the earliest deadline left in the table (kNever when empty).
  std::uint64_t sweep(std::uint64_t now_ns, std::vector<Resend>& resends,
                      std::vector<Failure>& failures);

  /// Record that a swept clone was injected: charges one retry and doubles
  /// the rto (bounded by rto_max). No-op when the entry was acked between
  /// the sweep and the injection.
  void confirm_retransmit(const PacketKey& key, std::uint64_t now_ns);

  /// Peer-death propagation (ft): mark `peer` permanently failed and move
  /// every tracked entry destined to it — removed from the table — into
  /// `failures` with code kPeerFailed, instead of letting each burn its
  /// retry budget into a dead link. Entries tracked *after* this call (a
  /// send racing the confirmation) are caught by the next sweep, which
  /// fails anything destined to a failed peer regardless of deadline.
  void fail_peer(int peer, std::vector<Failure>& failures);

  /// True once fail_peer(peer) has run (fail-fast gate for new tracks).
  bool peer_failed(int peer) const noexcept;

  /// Tracked-but-unacked entry count (relaxed). The send window gate: a
  /// sender blocks (progressing) while this is at Config::reliability_window
  /// so retransmit bursts stay bounded and acks self-clock the flood.
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  /// One tracked packet. Its destination is the key's peer.
  struct Entry {
    int retries = 0;
    std::uint64_t deadline_ns = 0;
    std::uint64_t rto_ns = 0;
    fabric::Packet pkt;  ///< retransmit master (shares the wire payload)
  };

  /// One shard's entries: an open-addressing table probed linearly from
  /// the key's hash, entries inline. Erase shifts the rest of the probe
  /// cluster back (no tombstones), and the slot array doubles once it would
  /// pass half full, so a table that has seen its peak allocates no more.
  /// A slot is empty when its key's opcode is 0: Opcode::kInvalid is never
  /// tracked. An erase may move entries across the last slot, so a walk
  /// (for_each) collects what it removes and erases after.
  class Table {
   public:
    Entry* find(const PacketKey& key) noexcept;
    /// The entry of `key`, claimed when absent (the flag is then true, and
    /// the entry holds a former occupant's fields: the caller sets each).
    std::pair<Entry*, bool> claim(const PacketKey& key);
    /// True when `key` was present.
    bool erase(const PacketKey& key) noexcept;

    /// Visit every entry as f(key, entry). No insert or erase inside f.
    template <class F>
    void for_each(F&& f) {
      if (size_ == 0) return;
      for (std::size_t i = 0; i < slots_n_; ++i) {
        Slot& s = slots_[i];
        if (s.key.opcode != 0) f(std::as_const(s.key), s.e);
      }
    }

   private:
    struct Slot {
      PacketKey key;
      Entry e;
    };
    std::size_t home(const PacketKey& key) const noexcept {
      return PacketKeyHash{}(key) & (slots_n_ - 1);
    }
    void grow();

    std::unique_ptr<Slot[]> slots_;
    std::size_t slots_n_ = 0;  ///< 0 or a power of two
    std::size_t size_ = 0;
  };

  /// Shard count: a power of two, so senders on distinct streams rarely
  /// share a lock, and a sweep stays a short walk.
  static constexpr unsigned kShardBits = 4;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  /// One lock and one table, on lines of their own.
  struct alignas(kCacheLine) Shard {
    RankedLock<Spinlock> lock{debug::LockRank::kReliability, "p2p.reliability"};
    Table inflight FAIRMPI_GUARDED_BY(lock);
  };

  /// Erase the entries of failures[first..] from `shard`, which a walk of
  /// it just collected there (collect, then erase: see Table).
  void erase_failures(Shard& shard, const std::vector<Failure>& failures, std::size_t first)
      FAIRMPI_REQUIRES(shard.lock);

  /// The shard of stream (peer, comm). Fibonacci hashing: consecutive
  /// communicator ids toward one peer land on distinct shards.
  Shard& shard_of(const PacketKey& key) noexcept {
    const std::uint32_t x = (key.comm ^ (static_cast<std::uint32_t>(key.peer) << 16)) *
                            0x9E3779B9u;
    return shards_[x >> (32 - kShardBits)];
  }

  const std::uint64_t rto_ns_;
  const std::uint64_t rto_max_ns_;
  const int max_retries_;

  std::array<Shard, kShards> shards_;
  /// Peers confirmed dead (ft), one bit per possible rank id (PacketKey
  /// peers are 16-bit): set by fail_peer before it takes any shard lock,
  /// so an entry tracked after fail_peer passed its shard is caught by the
  /// next sweep of that shard, which consults it. No entry to a dead peer
  /// ever retransmits.
  std::array<std::atomic<std::uint64_t>, (std::size_t{1} << 16) / 64> failed_peers_{};
  std::atomic<std::uint64_t>& due_;
  std::atomic<std::size_t> in_flight_{0};
};

}  // namespace fairmpi::p2p
