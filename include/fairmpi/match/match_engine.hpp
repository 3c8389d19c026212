// OB1-style per-communicator matching engine (§II-C, §III-F of the paper).
//
// One MatchEngine per communicator, guarded by one lock — matching is "the
// only strictly serial operation in MPI two-sided communication". Creating
// one communicator per thread pair therefore parallelizes matching, which
// is exactly how the paper simulates concurrent matching (Fig. 3c).
//
// Pipeline for an incoming envelope (under the lock):
//   1. sequence validation — per (src) expected counter; out-of-sequence
//      arrivals are buffered. Skipped entirely in overtaking mode
//      (`mpi_assert_allow_overtaking`, §IV-D).
//   2. queue search — first posted receive whose (source, tag) filter
//      matches, honouring post order across the per-peer tag bin, the
//      per-peer ANY_TAG queue and the ANY_SOURCE queue; unmatched messages
//      land in the per-peer unexpected bin of their tag.
//
// Allocation discipline (DESIGN.md §5): the steady-state matching path
// never calls the general-purpose allocator.
//   * posted queues are intrusive lists threaded through p2p::Request;
//   * per peer, both queues are split into kTagBins tag bins, so a match
//     walks only entries whose tag hashes alike (DESIGN.md §5, "Tag bins");
//   * unexpected messages live in pooled nodes (common::SlabPool);
//   * the reorder buffer is a power-of-two ring indexed by `seq & (cap-1)`
//     that doubles from kReorderWindow up to kReorderMax slots as a stream
//     parks deeper; a std::map spill handles only arrivals kReorderMax or
//     more messages ahead.
//
// SPCs record out-of-sequence counts, match time and queue depths — the
// counters behind the paper's Table II.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fairmpi/common/intrusive_list.hpp"
#include "fairmpi/common/slab_pool.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/wire.hpp"
#include "fairmpi/overload/overload.hpp"
#include "fairmpi/p2p/rendezvous.hpp"
#include "fairmpi/p2p/request.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::match {

/// Receiver-side admission verdict for one incoming eager/RTS packet,
/// reported back to the rank so the answer (ack or defer) is chosen
/// *after* matching (DESIGN.md §5h): acking a packet the engine held back
/// would retire the sender's reliability entry and lose the message.
enum class Admission : std::uint8_t {
  kAdmitted = 0,  ///< delivered, parked, or queued unexpected — ack it
  kDuplicate,     ///< duplicate of an already-accepted packet — re-ack it
  kHeld,          ///< refused at the unexpected cap — answer kDefer; the
                  ///< sender re-presents the packet on its base rto
};

/// Reorder ring bounds per (comm, src) stream. The ring starts at
/// kReorderWindow slots on the stream's first out-of-sequence arrival and
/// doubles whenever a packet parks at or beyond its capacity, up to
/// kReorderMax; only arrivals kReorderMax or more messages ahead spill to an
/// ordered map. How deep a stream parks is set by the sender's messages in
/// flight, not by the fabric: two pairs with 128-deep windows on one shared
/// communicator (perfbench `mr-shared`) park up to 511 packets behind one
/// hole, so the ring settles at 512 slots. Powers of two, so the slot index
/// is `seq & (cap - 1)`.
inline constexpr std::uint32_t kReorderWindow = 64;
inline constexpr std::uint32_t kReorderMax = 4096;
static_assert(std::has_single_bit(kReorderWindow) && std::has_single_bit(kReorderMax) &&
              kReorderWindow <= kReorderMax);

/// Tag bins per (comm, peer), for the posted and for the unexpected queue.
/// A tagged match walks one bin, not the peer's whole queue: two threads
/// posting windows for different tags on one communicator no longer step
/// over each other's receives under the match lock. Power of two, at most
/// 32 (the occupied-bin mask is one word).
inline constexpr std::uint32_t kTagBins = 16;
static_assert((kTagBins & (kTagBins - 1)) == 0 && kTagBins <= 32);

/// Bin of `tag`: multiplicative (Fibonacci) hash, top bits kept, so strided
/// tags (coll lanes, tag_base + pair) spread instead of sharing a bin.
/// With 16 bins, adjacent tags never share one.
constexpr std::uint32_t tag_bin(int tag) noexcept {
  return (static_cast<std::uint32_t>(tag) * 0x9E3779B9u) >>
         (32 - std::countr_zero(kTagBins));
}

/// Exactly-once filter for *overtaking* mode on a lossy fabric. Without
/// sequence validation every arrival is matchable, so a duplicated or
/// retransmitted packet would deliver twice; this tracker records which
/// sequence numbers have been seen per (comm, src) stream. Exact, not
/// probabilistic: `floor_` advances over the contiguous fully-seen prefix
/// (everything below it is seen), a circular bitmap covers the next kWindow
/// sequence numbers, and arrivals beyond the window — possible only after
/// deep loss — spill to an ordered set that migrates back into the window
/// as the floor advances. Guarded by the owning engine's match lock.
/// Sequence distances are compared as int32, like the reorder path: streams
/// are assumed never to span more than 2^31 outstanding messages.
class SeenTracker {
 public:
  static constexpr std::uint32_t kWindow = 1024;

  /// Mark `seq` seen; true when this is its first delivery.
  bool mark(std::uint32_t seq) {
    const std::int32_t delta = static_cast<std::int32_t>(seq - floor_);
    if (delta < 0) return false;  // below the floor: seen long ago
    if (static_cast<std::uint32_t>(delta) >= kWindow) {
      // Beyond the window: the stream has a loss hole >= kWindow deep.
      // lint: allow(hotpath-alloc) deep-loss spill, lossy-fabric mode only
      return far_.insert(seq).second;
    }
    if (test(seq)) return false;
    set(seq);
    while (test(floor_)) {
      clear(floor_);
      ++floor_;
      // Far entries the advance just brought into range join the window.
      while (!far_.empty()) {
        const std::uint32_t f = *far_.begin();
        if (static_cast<std::int32_t>(f - floor_) >= static_cast<std::int32_t>(kWindow)) break;
        set(f);
        far_.erase(far_.begin());
      }
    }
    return true;
  }

 private:
  bool test(std::uint32_t s) const noexcept {
    return (bits_[(s % kWindow) / 64] >> (s % 64)) & 1;
  }
  void set(std::uint32_t s) noexcept {
    bits_[(s % kWindow) / 64] |= std::uint64_t{1} << (s % 64);
  }
  void clear(std::uint32_t s) noexcept {
    bits_[(s % kWindow) / 64] &= ~(std::uint64_t{1} << (s % 64));
  }

  std::uint32_t floor_ = 0;  ///< every seq below this has been seen
  std::array<std::uint64_t, kWindow / 64> bits_{};
  std::set<std::uint32_t> far_;  ///< seen seqs >= floor_ + kWindow
};

class MatchEngine : public p2p::CancelScope {
 public:
  /// @param num_ranks   ranks in the communicator's universe (peer table size)
  /// @param allow_overtaking  skip sequence validation (MPI info key
  ///                          mpi_assert_allow_overtaking)
  /// @param counters    the owning rank's SPC set
  /// @param reliable    the fabric may duplicate/retransmit: discard repeated
  ///                    deliveries (counted as kDupDiscards) instead of
  ///                    treating a repeated sequence number as corruption
  MatchEngine(int num_ranks, bool allow_overtaking, spc::CounterSet& counters,
              bool reliable = false);

  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;
  ~MatchEngine() override;

  /// Handle a run of `n` incoming envelopes (kEager/kRndvRts) in order,
  /// under one hold of the match lock (DESIGN.md §5 rule 3); the packets
  /// are moved from. Returns the number of receive requests completed
  /// (out-of-sequence drains can complete several per packet). When
  /// `verdicts` is non-null, verdicts[i] receives the overload verdict for
  /// pkts[i] (see Admission above); without limits installed it is always
  /// kAdmitted/kDuplicate.
  std::size_t incoming(fabric::Packet* pkts, std::size_t n, Admission* verdicts);

  /// One incoming envelope: a run of one.
  std::size_t incoming(fabric::Packet&& pkt, Admission* admission = nullptr) {
    return incoming(&pkt, 1, admission);
  }

  /// Post a receive. Returns true when the request matched an unexpected
  /// message and completed immediately.
  bool post(p2p::Request* req);

  /// Non-destructive matching query (MPI_Iprobe semantics): is there an
  /// unexpected message a receive with these filters would match right
  /// now? Fills `status` (source, tag, size) on success. Messages parked
  /// in the reorder buffer are not yet matchable and are not reported.
  bool probe(int src, int tag, p2p::Status* status);

  /// ft propagation: `src` is confirmed dead. Fails every source-specific
  /// posted receive from it with kPeerFailed, drops its parked
  /// reorder-ring/spill packets (they can never become in-order — the
  /// stream is severed), and marks the source dead so *future* posted
  /// receives filtered on it fail immediately once no matchable unexpected
  /// message remains. Already-arrived unexpected messages stay matchable
  /// (they were delivered by the wire before the death). ANY_SOURCE
  /// receives are untouched — another peer may still satisfy them.
  /// Returns the number of receives failed.
  std::size_t fail_source(int src);

  /// Communicator revocation: fail every posted receive — source-specific
  /// and ANY_SOURCE — with kCommRevoked, and latch the engine revoked so a
  /// concurrently posting thread that read the CommState flag early fails
  /// under the match lock instead of enqueueing forever. Subsequent
  /// incoming packets are dropped. Returns the number failed.
  std::size_t fail_all_posted();

  /// Diagnostics. Each takes lock_, so the count is internally consistent,
  /// but may of course be stale by the time the caller reads it; exact only
  /// when externally quiesced. Safe to call concurrently with matching.
  /// unexpected_count is O(1): a counter maintained under lock_ on every
  /// enqueue/dequeue (the admission cap check must be hot-path safe).
  std::size_t unexpected_count() const noexcept;
  std::size_t reorder_buffered() const noexcept;
  std::size_t posted_count() const noexcept;
  /// Peers whose unexpected depth is at the overload cap (0 uncapped).
  std::size_t peers_at_cap() const noexcept;

  /// Install overload admission (done once by the owning Rank before any
  /// traffic; null keeps the engine bit-exact with the historical
  /// behaviour). The tracer, when given, records kOverloadPause events.
  void set_overload(const overload::Limits* lim, trace::Tracer* tracer = nullptr) noexcept {
    lim_ = lim;
    tracer_ = tracer;
  }

  /// Progress-driven deadline sweep: settle every posted receive whose
  /// deadline passed as kDeadlineExceeded and unlink it. Gated by an
  /// atomic min-deadline, so a stream with no deadlines costs one relaxed
  /// load per call. Returns the earliest surviving deadline (kNever = none),
  /// the rank's next due time for this engine.
  std::uint64_t expire_deadlines(std::uint64_t now_ns);

  /// p2p::CancelScope: cancel a posted receive. Takes the match lock,
  /// scans the posted queue the request would sit on, and only settles
  /// (kCancelled) while the request is verifiably still linked — so a
  /// cancel racing a matcher can never lose a consumed message.
  bool cancel_request(p2p::Request* req) override;

  bool allow_overtaking() const noexcept { return allow_overtaking_; }

  /// Install the rendezvous observer (must happen before any RndvRts
  /// traffic; done once by the owning Rank at construction).
  void set_rendezvous_hook(p2p::RendezvousHook* hook) noexcept { rndv_hook_ = hook; }

  /// The engine's internal lock, exposed ONLY for the observability
  /// self-check (deterministic contention-profiler exercise: a holder
  /// thread pins the lock while another thread runs a real matching
  /// operation). Not part of the matching API — matching callers never
  /// take this directly.
  RankedLock<Spinlock>& internal_lock() const noexcept FAIRMPI_RETURN_CAPABILITY(lock_) {
    return lock_;
  }

 private:
  /// Pooled node parking one unexpected message. Link hooks are owned by
  /// the match lock, like everything else in here.
  struct Unexpected {
    std::uint64_t arrival = 0;
    fabric::Packet pkt;
    Unexpected* prev = nullptr;
    Unexpected* next = nullptr;
  };
  using UnexpectedList =
      common::IntrusiveList<Unexpected, &Unexpected::prev, &Unexpected::next>;
  using PostedList =
      common::IntrusiveList<p2p::Request, &p2p::Request::mq_prev, &p2p::Request::mq_next>;

  /// Growable reorder buffer; allocated on a peer's first out-of-sequence
  /// arrival so in-order streams pay nothing for it, and grown (never
  /// shrunk) when a packet parks at or beyond `cap`. A slot is occupied
  /// when its packet has an opcode: parked packets are envelopes, and an
  /// empty slot's opcode is kInvalid. Invariant: every live entry has seq
  /// in (expected, expected + cap), so slot indices never collide and an
  /// occupied slot at `expected & (cap - 1)` always holds `expected`.
  struct ReorderRing {
    std::uint32_t cap = 0;  ///< slots, a power of two; 0 = not allocated
    std::unique_ptr<fabric::Packet[]> slot;

    /// Is `seq`'s slot occupied? Callers keep seq within the invariant.
    bool parked(std::uint32_t seq) const noexcept {
      return cap != 0 && slot[seq & (cap - 1)].hdr.opcode != fabric::Opcode::kInvalid;
    }
    void put(std::uint32_t seq, fabric::Packet&& pkt) noexcept {
      slot[seq & (cap - 1)] = std::move(pkt);
    }
    fabric::Packet take(std::uint32_t seq) noexcept {
      fabric::Packet& s = slot[seq & (cap - 1)];
      fabric::Packet out = std::move(s);
      s.hdr.opcode = fabric::Opcode::kInvalid;
      return out;
    }
    /// Reallocate at `new_cap` slots, re-indexing every live entry by its
    /// own seq.
    void grow(std::uint32_t new_cap);
  };

  struct PeerState {
    std::uint32_t expected_seq = 0;
    ReorderRing reorder;                            ///< parked arrivals (lazy)
    std::map<std::uint32_t, fabric::Packet> spill;  ///< >= kReorderMax ahead
    std::unique_ptr<SeenTracker> seen;  ///< dedup, reliable+overtaking only (lazy)
    /// Unexpected messages by tag_bin(tag), each bin in arrival order.
    std::array<UnexpectedList, kTagBins> unexpected;
    std::uint32_t unexpected_bins = 0;  ///< bit b <=> unexpected[b] non-empty
    std::size_t unexpected_n = 0;  ///< O(1) depth (admission cap check)
    /// Source-specific tagged receives by tag_bin(tag), each in post order.
    std::array<PostedList, kTagBins> posted;
    PostedList posted_any_tag;  ///< source-specific ANY_TAG receives
    bool dead = false;  ///< ft: source confirmed dead (fail_source ran)

    /// Is the future packet `seq` already parked (a retransmit whose ack
    /// was lost)? Within the ring's capacity it may sit in its slot; a
    /// packet spilled when it was kReorderMax or more ahead stays in the
    /// map after the frontier closes in on it, so the map is checked at
    /// any distance.
    bool holds(std::uint32_t seq) const {
      const bool in_ring = seq - expected_seq < reorder.cap && reorder.parked(seq);
      return in_ring || spill.contains(seq);
    }

    /// The list a posted receive for (this source, `tag`) sits on.
    PostedList& posted_list(int tag) noexcept {
      return tag == p2p::kAnyTag ? posted_any_tag : posted[tag_bin(tag)];
    }

    /// Apply `f` to every posted list of this peer: the bins, then ANY_TAG.
    template <typename F>
    void for_each_posted(F&& f) {
      for (PostedList& list : posted) f(list);
      f(posted_any_tag);
    }
  };

  // The private pipeline below threads a spc::CounterSet::Cursor through so
  // the per-thread counter shard is resolved once per public entry point.

  /// Match one in-order packet against the posted queues; deliver or store
  /// as unexpected. Returns 1 on delivery, 0 otherwise. Lock held.
  std::size_t match_one(spc::CounterSet::Cursor& ctr, fabric::Packet&& pkt)
      FAIRMPI_REQUIRES(lock_);

  /// Unexpected-queue bookkeeping: the bin and its occupied bit, per-peer
  /// depth and engine total. Lock held.
  /// erase_unexpected also returns the node to the pool.
  void push_unexpected(PeerState& ps, Unexpected* node) FAIRMPI_REQUIRES(lock_);
  void erase_unexpected(PeerState& ps, Unexpected* node) FAIRMPI_REQUIRES(lock_);

  /// Earliest-arrived unexpected message a receive with these filters
  /// accepts, across one peer or (ANY_SOURCE) all of them; null if none.
  /// Per peer, a tagged receive walks its tag's bin and ANY_TAG compares
  /// the heads of the occupied bins. `owner` receives the message's peer;
  /// `scanned` counts the entries inspected. Lock held.
  Unexpected* find_unexpected(int src, int tag, PeerState** owner,
                              std::size_t& scanned) FAIRMPI_REQUIRES(lock_);

  /// One arrival of a run: admission, sequence validation, matching and
  /// the reorder drain it unblocks. Returns the completions. Lock held.
  std::size_t match_arrival(spc::CounterSet::Cursor& ctr, fabric::Packet&& pkt,
                            Admission* admission) FAIRMPI_REQUIRES(lock_);

  /// Park an out-of-sequence packet: its ring slot, growing the ring when
  /// the packet is at or beyond its capacity, or the spill map when it is
  /// kReorderMax or more ahead. Lock held.
  void park_out_of_sequence(spc::CounterSet::Cursor& ctr, PeerState& ps,
                            fabric::Packet&& pkt) FAIRMPI_REQUIRES(lock_);

  /// Hand a matched packet to its request: eager payloads are copied and
  /// the request completes; rendezvous RTS envelopes are reported to the
  /// hook (the request completes when the data lands). Lock held.
  void deliver(spc::CounterSet::Cursor& ctr, p2p::Request* req,
               const fabric::Packet& pkt) FAIRMPI_REQUIRES(lock_);

  PeerState& peer(int rank) FAIRMPI_REQUIRES(lock_) {
    return peers_[static_cast<std::size_t>(rank)];
  }

  const bool allow_overtaking_;
  const bool reliable_;
  spc::CounterSet& spc_;
  p2p::RendezvousHook* rndv_hook_ = nullptr;
  const overload::Limits* lim_ = nullptr;  ///< admission caps (null = uncapped)
  trace::Tracer* tracer_ = nullptr;        ///< overload event recording (optional)

  /// Acquired under the CRI instance lock on the progress path (rank
  /// kMatch > kCriInstance); never held while acquiring engine resources —
  /// rendezvous sends discovered under it are deferred (p2p/rendezvous.hpp).
  /// (The slab pool's internal lock, rank kSlabPool, is the one exception:
  /// it is a leaf above the whole hierarchy.)
  mutable RankedLock<Spinlock> lock_{LockRank::kMatch, "match.engine"};
  std::vector<PeerState> peers_ FAIRMPI_GUARDED_BY(lock_);
  PostedList posted_any_ FAIRMPI_GUARDED_BY(lock_);  ///< ANY_SOURCE posted receives
  common::SlabPool<Unexpected> unexpected_pool_ FAIRMPI_GUARDED_BY(lock_);
  std::uint64_t post_stamp_ FAIRMPI_GUARDED_BY(lock_) = 0;
  std::uint64_t arrival_stamp_ FAIRMPI_GUARDED_BY(lock_) = 0;
  std::uint64_t reorder_total_ FAIRMPI_GUARDED_BY(lock_) = 0;  ///< ring + spill entries
  std::uint64_t unexpected_total_ FAIRMPI_GUARDED_BY(lock_) = 0;  ///< O(1) count
  bool revoked_ FAIRMPI_GUARDED_BY(lock_) = false;  ///< ft: comm revoked (terminal)
  /// Picks the post() and incoming() sections timed for kMatchTimeNs.
  CycleSampler sampler_ FAIRMPI_GUARDED_BY(lock_);
  /// Earliest posted-receive deadline (~0 = none): the expire sweep's
  /// one-relaxed-load gate, maintained on post and recomputed on sweep.
  std::atomic<std::uint64_t> next_deadline_{kNever};
};

}  // namespace fairmpi::match
