// Overload control & graceful degradation (DESIGN.md §5h).
//
// The engine survives a lossy fabric (reliability layer) and dead ranks
// (ft layer); this layer makes it survive *its own users*: an incast flood
// against a slow consumer must not grow the unexpected queues or the
// payload pool without bound, and a pending operation must be cancellable
// or deadline-bounded instead of waiting forever (ROADMAP item 4, the
// million-client service scenario).
//
// Three capped resources, each with a policy:
//
//   resource                 cap cvar            policies
//   ---------------------    -----------------   ------------------------
//   per-peer unexpected      unexpected_cap      kShed (NACK) / kQueue
//   payload-pool bytes       payload_pool_cap    kQueue (wait) / kShed
//   reliability in-flight    tracker_cap         kQueue (wait) / kShed
//
// One admission rule per side of the wire:
//
//   * Receiver: a packet parks out of sequence only while its distance
//     ahead of the in-order frontier plus the unexpected depth stays below
//     the cap; otherwise it is deferred (Opcode::kDefer, echoing the key
//     like an ack; a cap implies `reliable`, so the sender re-presents it).
//     So fewer than cap packets park and the unexpected queue never
//     exceeds the cap under both policies. The policy decides only what
//     happens with the queue at cap: kShed NACKs the in-sequence head
//     (Opcode::kNack), so the sender's tracker fails the op typed
//     kReceiverOverloaded; kQueue leaves every packet unanswered.
//   * Sender: one admission loop runs before the sequence number is
//     ticketed — the reliability window (always waits), then the tracker
//     and pool caps. At a refused cap kShed fails the op typed
//     kLocalOverloaded and kQueue spins (progressing) until pressure
//     drains.
//
// `Limits` is the whole per-rank control block: the resolved caps and
// policies, immutable after construction, so it takes no lock and no rank
// in the §5e hierarchy. A rank with no cap hands its engines a null
// `Limits*`, so the uncapped hot path pays one null check. What the caps
// hold back is reported as facts read at dump time (unexpected total,
// peers at cap, tracker in flight), not as a derived health level.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fairmpi::overload {

/// What to do when a capped resource is at its limit.
enum class Policy : std::uint8_t {
  kQueue = 0,  ///< backpressure the producer (EAGAIN/backoff path)
  kShed,       ///< refuse at admission (NACK / typed local error)
};

inline const char* policy_name(Policy p) noexcept {
  return p == Policy::kShed ? "shed" : "queue";
}

/// Resolved caps + policies (from Config; all caps 0 = layer disabled).
struct Limits {
  std::size_t unexpected_cap = 0;          ///< per-peer unexpected depth
  Policy unexpected_policy = Policy::kShed;
  std::uint64_t pool_cap_bytes = 0;        ///< process-global payload pool
  Policy pool_policy = Policy::kQueue;
  std::size_t tracker_cap = 0;             ///< in-flight reliability entries
  Policy tracker_policy = Policy::kQueue;

  /// Any cap configured? The uncapped fast path folds to one null check.
  bool enabled() const noexcept {
    return unexpected_cap != 0 || pool_cap_bytes != 0 || tracker_cap != 0;
  }

  bool tracker_at_cap(std::size_t in_flight) const noexcept {
    return tracker_cap != 0 && in_flight >= tracker_cap;
  }
};

}  // namespace fairmpi::overload
