// Communication Resource Instances (§III-B/D, Algorithm 1).
//
// A CRI bundles the resources one thread needs to drive the network — a
// network context (with its RX ring and CQ) plus one endpoint per peer —
// behind a single per-instance lock. The pool replicates CRIs so threads
// can inject and extract concurrently; the assignment policy decides which
// instance a thread uses:
//
//   * kRoundRobin — an atomic circular counter hands out a (probably)
//     different instance on every call: no sustained contention, good load
//     balance, at the price of one atomic per operation and losing
//     instance affinity (Alg. 1, GET-INSTANCE-ID--ROUND-ROBIN).
//   * kDedicated — sticky thread-local binding, first assigned by a
//     topology-aware claim scan (nearest-LLC-domain instance first, then
//     any free instance, round-robin once oversubscribed): zero contention
//     while #threads <= #instances (Alg. 1, GET-INSTANCE-ID--DEDICATED),
//     and no cross-domain coherence traffic while the host's topology
//     leaves room.
//
// PR 7 (DESIGN.md §5f) adds the lock-free injection path: each instance
// carries a SubmitRing, and inject() only takes the instance lock when it
// is free — a contended producer instead claims a ring slot with one CAS
// and waits (adaptive backoff, then a profiled blocking acquire) for
// whichever lock holder flushes the ring on its behalf.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/backoff.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/fabric/submit_ring.hpp"
#include "fairmpi/obs/contention.hpp"
#include "fairmpi/spc/spc.hpp"

namespace fairmpi::cri {

/// The per-instance lock type: a spinlock acquired through the lock-rank
/// validator at rank kCriInstance (progress gate < CRI < match).
using InstanceLock = RankedLock<Spinlock>;

enum class Assignment {
  kRoundRobin,
  kDedicated,
};

const char* assignment_name(Assignment a) noexcept;

/// One instance: context + per-peer endpoints + the protection lock + the
/// lock-free submission ring. Cache-line aligned so sibling instances in a
/// pool never share a line (placement, DESIGN.md §5f).
class alignas(kCacheLine) CommResourceInstance {
 public:
  /// Default submission-ring depth; overridable per pool (Config).
  static constexpr std::size_t kDefaultSubmitEntries = 256;

  /// Fruitless backoff rounds before a queued producer escalates from
  /// try_lock re-election to a blocking (profiled) acquire. Eight rounds
  /// is the point where Backoff's exponential budget saturates — past it
  /// the wait is scheduler-scale and should be attributed, not hidden.
  static constexpr std::uint32_t kEscalateRounds = 8;

  CommResourceInstance(int id, fabric::Fabric& fabric, fabric::NetworkContext& ctx,
                       std::size_t submit_entries = kDefaultSubmitEntries)
      : id_(id),
        ctx_(&ctx),
        submit_(submit_entries),
        // Topology-aware funnel engagement: on a host with one hardware
        // thread a contended producer can never be drained concurrently
        // (the combiner is descheduled while the producer polls), so the
        // claim/ticket machinery is pure overhead over a futex handoff —
        // measured ~15% multirate regression on the 1-core CI host. An
        // explicitly configured (non-default) ring size opts in
        // unconditionally so tests exercise the funnel everywhere.
        use_funnel_(common::Backoff::spin_profitable() ||
                    submit_entries != kDefaultSubmitEntries) {
    // lint: allow(hotpath-alloc) ctor: endpoint table sized once per instance
    endpoints_.reserve(static_cast<std::size_t>(fabric.num_ranks()));
    for (int peer = 0; peer < fabric.num_ranks(); ++peer) {
      endpoints_.emplace_back(fabric, ctx, peer);
    }
  }

  CommResourceInstance(const CommResourceInstance&) = delete;
  CommResourceInstance& operator=(const CommResourceInstance&) = delete;

  int id() const noexcept { return id_; }
  InstanceLock& lock() noexcept FAIRMPI_RETURN_CAPABILITY(lock_) { return lock_; }

  /// The instance's network context. Deliberately NOT lock-required: the
  /// stall watchdog reads the context's lock-free counters while the
  /// instance is busy (that race is its design, watchdog.cpp), and ring
  /// consumption is governed by the single-consumer contract in
  /// mpsc_ring.hpp rather than a capability the analysis can express.
  fabric::NetworkContext& context() noexcept { return *ctx_; }

  /// Injection endpoint for `peer`. Injection mutates per-endpoint credit
  /// and sequence state, so callers must hold the instance lock.
  fabric::Endpoint& endpoint(int peer) FAIRMPI_REQUIRES(lock_) {
    return endpoints_[static_cast<std::size_t>(peer)];
  }

  /// Count one packet (or RMA CQ event) handed to this instance in its
  /// per-CRI cell of `counters` (obs-only: one predicted branch when off).
  void note_injection(spc::CounterSet& counters) const noexcept {
    if (obs::enabled()) [[unlikely]] counters.add(spc::CriMetric::kInjections, id_);
  }

  /// The lock-free submission ring (producer side; see submit_ring.hpp for
  /// the protocol). Exposed for tests/benches; production code goes
  /// through inject()/flush_submissions().
  fabric::SubmitRing& submit_ring() noexcept { return submit_; }

  /// Inject one eager packet toward `dst` without requiring the caller to
  /// hold (or even touch, on the contended path) the instance lock:
  ///
  ///   free lock   -> take it, flush the ring, inject directly
  ///   held lock   -> claim a ring slot (one CAS) and wait on the ticket,
  ///                  re-electing via try_lock (combining funnel) and
  ///                  escalating to a profiled blocking acquire once the
  ///                  adaptive backoff saturates
  ///   full ring   -> blocking acquire (the ring being full means a flush
  ///                  is overdue anyway)
  ///
  /// Returns false on fabric backpressure (destination RX ring full); the
  /// packet is left intact for the caller's retry loop either way.
  bool inject(int dst, fabric::Packet& pkt, spc::CounterSet& counters);

  /// Drain the submission ring, injecting each queued descriptor and
  /// resolving its ticket. Single consumer: callers hold the instance
  /// lock. Returns descriptors retired; `counters` is the owning rank's
  /// registry (per-CRI injection and flush-batch cells).
  std::size_t flush_submissions(spc::CounterSet& counters) FAIRMPI_REQUIRES(lock_);

 private:
  const int id_;
  fabric::NetworkContext* ctx_;
  std::vector<fabric::Endpoint> endpoints_ FAIRMPI_GUARDED_BY(lock_);
  InstanceLock lock_{LockRank::kCriInstance, "cri.instance"};
  fabric::SubmitRing submit_;
  const bool use_funnel_;  ///< see ctor: spin-profitable host or explicit size
};

/// The pool of CRIs owned by one rank, plus the "centralized body" (§III-B)
/// that assigns instances to threads.
class CriPool {
 public:
  /// Builds one CRI per context of `rank`'s NIC. `submit_ring_entries`
  /// sizes each instance's submission ring (Config::submit_ring_entries).
  CriPool(fabric::Fabric& fabric, int rank, Assignment assignment,
          std::size_t submit_ring_entries = CommResourceInstance::kDefaultSubmitEntries);

  CriPool(const CriPool&) = delete;
  CriPool& operator=(const CriPool&) = delete;

  int size() const noexcept { return static_cast<int>(instances_.size()); }
  Assignment assignment() const noexcept { return assignment_; }

  CommResourceInstance& instance(int i) { return *instances_[static_cast<std::size_t>(i)]; }

  /// Locality domain instance `i` is homed on: instances are laid out
  /// i mod D across the host's D LLC/NUMA domains at construction, so
  /// sibling instances land on distinct domains as long as the host has
  /// them. Single-domain hosts map everything to 0.
  int instance_domain(int i) const noexcept {
    return instance_domain_[static_cast<std::size_t>(i)];
  }

  /// Alg. 1 GET-INSTANCE-ID--ROUND-ROBIN: atomic circular counter.
  int next_round_robin() noexcept {
    return static_cast<int>(rr_->fetch_add(1, std::memory_order_relaxed) %
                            static_cast<std::uint32_t>(instances_.size()));
  }

  /// Alg. 1 GET-INSTANCE-ID--DEDICATED, topology-aware: on a thread's
  /// first use of this pool it claims a free instance — preferring ones
  /// homed on its own locality domain — and stays bound to it. Once every
  /// instance is claimed (threads > instances), later threads fall back to
  /// round-robin assignment, preserving the wrap behaviour of Alg. 1.
  int dedicated_id();

  /// The instance id for the calling thread per the configured policy.
  int id_for_thread() {
    return assignment_ == Assignment::kDedicated ? dedicated_id() : next_round_robin();
  }

 private:
  /// Claim a free instance for a first-time dedicated thread (see
  /// dedicated_id); -1 when every instance is already claimed.
  int claim_instance();

  const Assignment assignment_;
  const std::uint64_t pool_key_;  ///< global key for the TLS binding table
  std::vector<std::unique_ptr<CommResourceInstance>> instances_;
  std::vector<int> instance_domain_;  ///< instance -> locality domain
  /// Dedicated-claim flags, one padded cell per instance so two threads
  /// binding simultaneously never bounce a shared line.
  std::unique_ptr<Padded<std::atomic<std::uint8_t>>[]> claimed_;
  Padded<std::atomic<std::uint32_t>> rr_{};

  static std::atomic<std::uint64_t> next_pool_key_;
};

}  // namespace fairmpi::cri
