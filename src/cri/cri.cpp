#include "fairmpi/cri/cri.hpp"

#include <memory>

#include "fairmpi/common/backoff.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/topology.hpp"

namespace fairmpi::cri {

const char* assignment_name(Assignment a) noexcept {
  switch (a) {
    case Assignment::kRoundRobin: return "round-robin";
    case Assignment::kDedicated: return "dedicated";
  }
  return "unknown";
}

std::atomic<std::uint64_t> CriPool::next_pool_key_{0};

std::size_t CommResourceInstance::flush_submissions(spc::CounterSet& counters) {
  const std::size_t n = submit_.drain([this, &counters](const fabric::SubmitDesc& d) {
    // The [C1] acquire in drain() made the producer's packet fully visible;
    // inject it exactly as the producer would have under the lock.
    const bool ok = endpoints_[static_cast<std::size_t>(d.dst)].try_send(std::move(*d.pkt));
    if (ok) note_injection(counters);
    // [T1] resolve: release publishes the injection (or, on backpressure,
    // the fact that try_send left *pkt intact) to the waiting producer.
    // Past this store the producer owns its packet and ticket again.
    d.ticket->status.store(
        static_cast<std::uint8_t>(ok ? fabric::SubmitStatus::kInjected
                                     : fabric::SubmitStatus::kBackpressure),
        std::memory_order_release);
  });
  if (n != 0 && obs::enabled()) [[unlikely]] counters.record(spc::CriHist::kSubmitFlush, id_, n);
  return n;
}

bool CommResourceInstance::inject(int dst, fabric::Packet& pkt, spc::CounterSet& counters) {
  // Fast path: free lock, no waits, no ring traffic — this is what keeps
  // cri.instance wait-cycles at zero on the uncontended path. The flush is
  // usually a single empty-frontier load.
  if (lock_.try_lock()) {
    LockGuard adopt(lock_, adopt_lock);
    flush_submissions(counters);
    const bool ok = endpoints_[static_cast<std::size_t>(dst)].try_send(std::move(pkt));
    if (ok) note_injection(counters);
    return ok;
  }

  if (!use_funnel_) {
    // Funnel disengaged (1-hardware-thread host, default ring size — see
    // the constructor): a blocking profiled acquire IS the optimal
    // contended path here, since no combiner can run while we poll. Still
    // flush: other pools' instances may have queued before we were built,
    // and the explicit-opt-in configs interleave with this path.
    LockGuard guard(lock_);
    flush_submissions(counters);
    const bool ok = endpoints_[static_cast<std::size_t>(dst)].try_send(std::move(pkt));
    if (ok) note_injection(counters);
    return ok;
  }
  auto spc = counters.cursor();
  fabric::SubmitTicket ticket;
  const fabric::SubmitPushOutcome push = submit_.try_push({&pkt, &ticket, dst});
  if (!push.ok) {
    // Ring full: a flush is overdue, so a blocking (profiled) acquire and a
    // self-service flush is the productive move — queueing behind a full
    // ring would only deepen the backlog.
    spc.add(spc::Counter::kSubmitRingFull);
    LockGuard guard(lock_);
    flush_submissions(counters);
    const bool ok = endpoints_[static_cast<std::size_t>(dst)].try_send(std::move(pkt));
    if (ok) note_injection(counters);
    return ok;
  }

  // Per-CRI cells; the rank's SubmitQueued/SubmitDoorbells/SubmitCasRetries
  // SPCs are their sums over instances (spc::rollup).
  spc.add(spc::CriMetric::kSubmitClaimed, id_);
  if (push.rang_doorbell) spc.add(spc::CriMetric::kSubmitDoorbells, id_);
  if (push.cas_retries != 0) spc.add(spc::CriMetric::kSubmitCasRetries, id_, push.cas_retries);

  // Wait for the ticket, re-electing as flusher whenever the lock frees up
  // (the combining funnel: one acquisition retires every queued
  // submission). The backoff keeps the lock's cache line quiet while the
  // holder works; once it saturates we ring the doorbell (the "timeout"
  // arm of the batching rule) and fall through to a blocking acquire so a
  // long hold shows up as attributed cri.instance wait time instead of an
  // invisible spin.
  common::Backoff backoff;
  bool escalated = false;
  for (;;) {
    const fabric::SubmitStatus st = ticket.load_acquire();
    if (st != fabric::SubmitStatus::kPending) {
      return st == fabric::SubmitStatus::kInjected;
    }
    // Our descriptor is published, so a flush retires it unless an earlier
    // claim is still mid-fill (publish frontier short of us); loop to
    // re-check — the hole closes within a few stores.
    if (escalated) {
      LockGuard guard(lock_);
      flush_submissions(counters);
      continue;
    }
    if (lock_.try_lock()) {
      LockGuard adopt(lock_, adopt_lock);
      flush_submissions(counters);
      continue;
    }
    backoff.pause();
    // Saturation means the pauses have become yields — scheduler-scale
    // waiting, where a blocking (futex) acquire beats polling. On a 1-CPU
    // host Backoff saturates on the first pause, so contended producers go
    // straight to the futex instead of burning the holder's quantum.
    if (!escalated &&
        (backoff.saturated() || backoff.rounds() >= kEscalateRounds)) {
      escalated = true;
      submit_.ring_doorbell();
    }
  }
}

CriPool::CriPool(fabric::Fabric& fabric, int rank, Assignment assignment,
                 std::size_t submit_ring_entries)
    : assignment_(assignment),
      pool_key_(next_pool_key_.fetch_add(1, std::memory_order_relaxed)) {
  fabric::Nic& nic = fabric.nic(rank);
  const int n = nic.num_contexts();
  // lint: allow(hotpath-alloc) ctor: pool built once per rank per universe
  instances_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    instances_.push_back(
        // lint: allow(hotpath-alloc) ctor: one instance per NIC context
        std::make_unique<CommResourceInstance>(i, fabric, nic.context(i), submit_ring_entries));
  }
  FAIRMPI_CHECK(!instances_.empty());
  // Domain layout i mod D: consecutive instances land on distinct
  // LLC/NUMA domains, so the default "thread t drives instance t" pattern
  // never stacks two hot instances on one domain while another sits idle.
  // Single-domain hosts (and the 1-CPU CI runner) map everything to 0 and
  // the layout is a no-op.
  const int domains = common::cpu_topology().num_domains;
  // lint: allow(hotpath-alloc) ctor: placement table sized once
  instance_domain_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    instance_domain_[static_cast<std::size_t>(i)] = i % (domains > 0 ? domains : 1);
  }
  // lint: allow(hotpath-alloc) ctor: one padded claim flag per instance
  claimed_ = std::make_unique<Padded<std::atomic<std::uint8_t>>[]>(static_cast<std::size_t>(n));
}

int CriPool::claim_instance() {
  // Preference order: instances homed on the calling thread's own locality
  // domain first (current_cpu() is a hint — a later migration costs
  // locality, not correctness), then everything else. The claim itself is
  // one CAS per probed flag; relaxed suffices because the flag only
  // allocates the id — all instance state transfer happens through the
  // instance lock.
  const int my_domain = common::cpu_topology().domain_of(common::current_cpu());
  const int n = size();
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < n; ++i) {
      const bool own = instance_domain_[static_cast<std::size_t>(i)] == my_domain;
      if ((pass == 0) != own) continue;
      std::uint8_t expected = 0;
      if (claimed_[static_cast<std::size_t>(i)]->compare_exchange_strong(
              expected, 1, std::memory_order_relaxed)) {
        return i;
      }
    }
  }
  return -1;  // oversubscribed: every instance already has an owner
}

int CriPool::dedicated_id() {
  // Per-thread binding table indexed by pool key. Pools are few and
  // long-lived (one per rank per universe), so a flat vector beats a hash
  // map on this hot path. -1 marks "not yet bound" (Alg. 1: my_id
  // undefined -> assign and remember).
  thread_local std::vector<std::int32_t> bindings;
  // lint: allow(hotpath-alloc) first-bind slow path: TLS table grows once per newer pool, later calls are a flat load
  if (bindings.size() <= pool_key_) bindings.resize(pool_key_ + 1, -1);
  std::int32_t& slot = bindings[pool_key_];
  if (slot < 0) {
    const int claimed = claim_instance();
    slot = static_cast<std::int32_t>(claimed >= 0 ? claimed : next_round_robin());
  }
  return slot;
}

}  // namespace fairmpi::cri
