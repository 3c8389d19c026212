// Seeded, deterministic fault injection for the simulated fabric.
//
// The paper's designs are exercised only on a perfectly reliable transport;
// production multithreaded MPI stacks break precisely where transports
// misbehave (flow-control stalls, loss, duplication — the failure modes the
// MPI+threads "lessons learned" literature reports). The injector sits
// inside Fabric::try_deliver and perturbs traffic per *link* — one
// (src_rank, dst_rank) pair — with independent xoshiro256** streams forked
// from a single seed, so a single-threaded injection sequence is
// bit-reproducible: same seed + same per-link packet order => same fates.
// Under concurrency the per-link decision *sequence* is still deterministic;
// which packet draws which fate follows the (inherently racy) injection
// interleaving, and the reliability layer makes the outcome exact either
// way.
//
// Fault model:
//   drop     packet vanishes; the sender still sees success (a lost wire
//            packet, not backpressure).
//   dup      a clone is delivered alongside the original; it shares the
//            original's immutable payload buffer, so it costs no pool bytes.
//   delay    the packet parks in a per-link holdback slot and is released
//            after 2..5 later packets on the same link (count-based, so
//            deterministic — no wall clock).
//   reorder  delay with a one-packet horizon: the packet is emitted after
//            the next one, swapping adjacent arrivals.
//   corrupt  a random bit flips in the header or payload. payload_size is
//            exempt — it is validated by the simulated NIC's descriptor
//            (DMA-length) check, mirroring transports that protect lengths
//            in hardware; corrupting it would turn a checksum test into an
//            out-of-bounds read. A payload flip first gives the packet its
//            own copy of a shared buffer (Packet::mutable_payload), so a
//            tracked retransmit master never sees it; a copy the pool
//            refuses at its cap drops the packet instead.
//
// Lock discipline: one RankedLock (kFaultInject) per link, held only across
// a single injection's decisions; the only lock it may acquire underneath
// is the payload pool's leaf (the corrupt copy of a shared payload).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/rng.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::fabric {

/// Per-link fault probabilities (each in [0, 1]) and the master seed.
struct FaultParams {
  double drop = 0.0;
  double dup = 0.0;
  double delay = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  std::uint64_t seed = 0x5eedfab51cULL;

  bool any() const noexcept {
    return drop > 0.0 || dup > 0.0 || delay > 0.0 || reorder > 0.0 || corrupt > 0.0;
  }
};

/// Aggregate injector statistics (relaxed atomics; exact when quiescent).
/// ring_losses counts duplicate/released packets that found the destination
/// ring full — they become ordinary losses, recovered like any drop.
struct FaultStats {
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> reordered{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> released{0};
  std::atomic<std::uint64_t> ring_losses{0};
  std::atomic<std::uint64_t> kill_drops{0};  ///< packets eaten by a dead rank's links
};

class FaultInjector {
 public:
  /// Holdback depth per link; a full holdback delivers its oldest entry.
  static constexpr std::size_t kHoldback = 4;
  /// Max packets one injection can emit: released holdbacks + original + dup.
  static constexpr std::size_t kMaxEmit = kHoldback + 2;

  /// One injection's outcome: `pkts[0..n)` must be pushed toward the
  /// destination in order. `primary` is the index of the caller's own
  /// packet within pkts (always 0: released holdbacks follow it), or -1
  /// when it was dropped or parked.
  struct Batch {
    std::array<Packet, kMaxEmit> pkts;
    std::size_t n = 0;
    int primary = -1;
  };

  /// `pool_cap_bytes` (0 = none) bounds the corrupt fault's payload copies
  /// (§5h); a refused copy drops the packet.
  FaultInjector(int num_ranks, const FaultParams& params, std::uint64_t pool_cap_bytes = 0);

  /// Run one packet through the link's fault model. Consumes `pkt`; fills
  /// `out`. Call only once the packet is sure to reach the wire: the
  /// decisions cannot be undone, so backpressure is the caller's check to
  /// make first (Fabric::deliver_faulty checks for lane room).
  void process(int src, int dst, Packet&& pkt, Batch& out);

  const FaultParams& params() const noexcept { return params_; }
  FaultStats& stats() noexcept { return stats_; }

  /// Packets currently parked across all links (test/diagnostic hook).
  std::size_t held() const noexcept;

  // --- peer-death mode (ft; permanent link-down) ---

  /// Kill `r` immediately: every subsequent packet with src or dst == r is
  /// eaten by the wire (counted in stats().kill_drops). Irreversible.
  void kill_rank(int r) noexcept { kill_at(r).store(0, std::memory_order_relaxed); }

  /// Kill `r` once it has injected `at_seq` packets in total (absolute
  /// count across all of r's links since construction): the death point is
  /// a packet index, not a wall-clock instant, so it is seeded and
  /// reproducible like every other fault. An at_seq already passed kills
  /// immediately.
  void kill_rank_at(int r, std::uint64_t at_seq) noexcept {
    kill_at(r).store(at_seq, std::memory_order_relaxed);
  }

  /// True once `r`'s death point has been reached.
  bool rank_dead(int r) const noexcept {
    const std::uint64_t at = kill_[static_cast<std::size_t>(r)].value.load(
        std::memory_order_relaxed);
    return injected_by_[static_cast<std::size_t>(r)].value.load(
               std::memory_order_relaxed) >= at;
  }

 private:
  struct LinkState {
    RankedLock<Spinlock> lock{debug::LockRank::kFaultInject, "fabric.fault-link"};
    Xoshiro256 rng FAIRMPI_GUARDED_BY(lock){0};
    struct Held {
      Packet pkt;
      int release_after = 0;  ///< emit once this many later packets pass
      bool reordered = false; ///< parked by the reorder fault (stats)
      bool occupied = false;
    };
    std::array<Held, kHoldback> held FAIRMPI_GUARDED_BY(lock);
    std::size_t n_held FAIRMPI_GUARDED_BY(lock) = 0;
  };

  LinkState& link(int src, int dst) noexcept {
    return *links_[static_cast<std::size_t>(src) * num_ranks_ +
                   static_cast<std::size_t>(dst)];
  }

  std::atomic<std::uint64_t>& kill_at(int r) noexcept {
    return kill_[static_cast<std::size_t>(r)].value;
  }

  const FaultParams params_;
  const std::uint64_t pool_cap_bytes_;
  const std::size_t num_ranks_;
  std::vector<std::unique_ptr<LinkState>> links_;
  FaultStats stats_;
  /// Death point per rank (~0 = immortal; see kill_rank_at) and the running
  /// count of packets each rank has injected. Padded: the counter is bumped
  /// on every injection by whichever thread carries the packet.
  std::vector<Padded<std::atomic<std::uint64_t>>> kill_;
  std::vector<Padded<std::atomic<std::uint64_t>>> injected_by_;
};

}  // namespace fairmpi::fabric
