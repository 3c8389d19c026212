// Overload control & graceful degradation (DESIGN.md §5h).
//
// The engine survives a lossy fabric (reliability layer) and dead ranks
// (ft layer); this layer makes it survive *its own users*: an incast flood
// against a slow consumer must not grow the unexpected queues or the
// payload pool without bound, and a pending operation must be cancellable
// or deadline-bounded instead of waiting forever (ROADMAP item 4, the
// million-client service scenario).
//
// Three capped resources, one policy: a refused producer waits.
//
//   resource                 cap cvar            at cap
//   ---------------------    -----------------   ------------------------
//   per-peer unexpected      unexpected_cap      packet held (deferred)
//   payload-pool bytes       payload_pool_cap    sender waits
//   reliability in-flight    tracker_cap         sender waits
//
// One admission rule per side of the wire:
//
//   * Receiver: a packet is held while the unexpected depth plus its
//     distance ahead of the in-order frontier (0 for the head) reaches the
//     cap, so with the queue at cap every packet is held. A held packet is
//     deferred (Opcode::kDefer, echoing the key like an ack; a cap implies
//     `reliable`), and its sender re-presents it one base rto later,
//     uncharged. So fewer than cap packets park and the unexpected queue
//     never exceeds the cap.
//   * Sender: one admission loop runs before the sequence number is
//     ticketed — the reliability window, then the tracker and pool caps.
//     A refused send waits (progressing) until pressure drains; its typed
//     exits are the op's deadline, cancel and peer death, plus the send
//     budget at the pool cap.
//
// `Limits` is the whole per-rank control block: the resolved caps,
// immutable after construction, so it takes no lock and no rank
// in the §5e hierarchy. A rank with no cap hands its engines a null
// `Limits*`, so the uncapped hot path pays one null check. What the caps
// hold back is reported as facts read at dump time (unexpected total,
// peers at cap, tracker in flight), not as a derived health level.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fairmpi::overload {

/// Resolved caps (from Config; all caps 0 = layer disabled).
struct Limits {
  std::size_t unexpected_cap = 0;    ///< per-peer unexpected depth
  std::uint64_t pool_cap_bytes = 0;  ///< process-global payload pool
  std::size_t tracker_cap = 0;       ///< in-flight reliability entries

  /// Any cap configured? The uncapped fast path folds to one null check.
  bool enabled() const noexcept {
    return unexpected_cap != 0 || pool_cap_bytes != 0 || tracker_cap != 0;
  }
};

}  // namespace fairmpi::overload
