#include "fairmpi/p2p/sender.hpp"

#include "fairmpi/common/backoff.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::p2p {

using spc::Counter;

common::ErrorCode eager_send(CommState& comm, cri::CriPool& pool,
                             progress::ProgressEngine& engine,
                             spc::CounterSet& counters, int src_rank, int dst, int tag,
                             const void* buf, std::size_t n, Request& req,
                             const SendPolicy& policy) {
  FAIRMPI_CHECK_MSG(tag >= 0, "negative tags are reserved (wildcards/internal)");
  req.init_send(policy.deadline_ns);

  const auto dst_dead = [&]() {
    return policy.peer_failed != nullptr &&
           policy.peer_failed(policy.peer_failed_user, dst);
  };
  if (dst_dead()) {
    counters.add(Counter::kFtPeerFailedOps);
    req.fail(common::ErrorCode::kPeerFailed);
    return common::ErrorCode::kPeerFailed;
  }

  const auto make_progress = [&]() -> std::size_t {
    return policy.progress != nullptr ? policy.progress(policy.progress_user)
                                      : engine.progress();
  };
  const auto expired = [&]() {
    return policy.deadline_ns != 0 && now_ns() >= policy.deadline_ns;
  };

  std::uint64_t attempts = 0;
  // Adaptive spin-then-backoff (SNIPPETS.md §1 idiom) instead of the old
  // fixed SpinWait: backpressure waits are holder-length-unknown, so the
  // probe cadence should stretch while the backlog persists and snap back
  // on any progress.
  common::Backoff waiter;

  // One iteration of any wait loop: charge the retry budget, escape typed
  // on peer death / external cancel / deadline expiry, otherwise progress
  // and back off. `tracked` non-null = the packet is in the reliability
  // table and an abandoned send must untrack it (it never reached the
  // wire from this loop's point of view; a clone a concurrent sweep
  // already re-injected is at-least-once semantics as usual).
  const auto wait_tick = [&](const PacketKey* tracked) -> common::ErrorCode {
    counters.add(Counter::kSendBackpressure);
    if (policy.retry_limit != 0 && ++attempts >= policy.retry_limit) {
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      if (req.fail(common::ErrorCode::kSendBudgetExhausted)) {
        counters.add(Counter::kReliabilityErrors);
      }
      return common::ErrorCode::kSendBudgetExhausted;
    }
    if (dst_dead()) {
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      counters.add(Counter::kFtPeerFailedOps);
      req.fail(common::ErrorCode::kPeerFailed);
      return common::ErrorCode::kPeerFailed;
    }
    if (req.done()) {
      // Another thread settled the request under us — Request::cancel().
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      return req.error();
    }
    if (expired()) {
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      if (req.fail(common::ErrorCode::kDeadlineExceeded)) {
        counters.add(Counter::kDeadlineExceededOps);
      }
      return common::ErrorCode::kDeadlineExceeded;
    }
    if (make_progress() == 0) waiter.pause(); else waiter.reset();
    return common::ErrorCode::kOk;
  };

  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(src_rank);
  pkt.hdr.comm_id = comm.id();
  pkt.hdr.tag = tag;

  // One admission loop (DESIGN.md §5h), before the sequence number is
  // ticketed: a send that leaves it typed (shed, deadline, cancel, budget,
  // peer death) never leaves a hole in the peer's ordered stream. Three
  // caps, in order:
  //   - the reliability window, an in-flight cap that always waits (acks
  //     self-clock a flood; a peer that never acks is the same livelock as
  //     one that never drains, so it burns the same retry budget);
  //   - the tracker cap, and
  //   - the payload-pool cap, charged where the payload buffer is made;
  //     the tracker's retransmit master shares that buffer, so it charges
  //     nothing.
  // At a refused cap that cap's policy decides: kShed fails the send typed
  // kLocalOverloaded, kQueue waits. Uncapped, unreliable sends pass on the
  // first iteration.
  const overload::Governor* gov =
      policy.governor != nullptr && policy.governor->enabled() ? policy.governor : nullptr;
  const std::uint64_t pool_cap = gov != nullptr ? gov->limits().pool_cap_bytes : 0;
  for (;;) {
    overload::Policy at_cap = overload::Policy::kQueue;
    const std::size_t in_flight = policy.tracker != nullptr ? policy.tracker->in_flight() : 0;
    if (policy.window != 0 && in_flight >= policy.window) {
      // the window always waits
    } else if (gov != nullptr && gov->tracker_at_cap(in_flight)) {
      at_cap = gov->limits().tracker_policy;
    } else if (pkt.set_payload(buf, n, pool_cap)) {
      break;
    } else {
      // Only a pool cap refuses a buffer, so `gov` is set.
      at_cap = gov->limits().pool_policy;
    }
    if (at_cap == overload::Policy::kShed) {
      req.fail(common::ErrorCode::kLocalOverloaded);
      return common::ErrorCode::kLocalOverloaded;
    }
    const common::ErrorCode rc = wait_tick(nullptr);
    if (rc != common::ErrorCode::kOk) return rc;
  }
  waiter.reset();

  // Sequence ticketing happens before resource acquisition, as in OB1. Two
  // threads that ticket back-to-back can inject in the opposite order (or
  // into different contexts) — this is where out-of-sequence messages come
  // from, even with a single instance.
  pkt.hdr.seq = comm.next_seq(dst);

  // Track before the first injection attempt so an ack racing back through
  // a fast peer always finds the entry (reliability.hpp contract). The
  // master shares the payload buffer, and on a failed attempt the fabric
  // hands the packet back intact, so the master and the wire packet never
  // diverge. After the ticket only the injection EAGAIN loop below remains.
  if (policy.tracker != nullptr) policy.tracker->track(dst, pkt, now_ns());
  for (;;) {
    const int k = pool.id_for_thread();
    cri::CommResourceInstance& inst = pool.instance(k);

    // Lock-free submission path (DESIGN.md §5f): a free instance lock is
    // taken and used directly; a held one means the packet rides the
    // submission ring and whoever holds the lock injects on our behalf.
    // Either way the packet is intact again on backpressure.
    const bool injected = inst.inject(dst, pkt, counters);
    if (injected) break;

    // Destination RX ring full: the fabric's EAGAIN. Drop the instance,
    // make progress on our own resources (the peer may be blocked on *our*
    // ring in a bidirectional flood), then retry — spinning while young,
    // yielding once saturated so a descheduled peer can run.
    const PacketKey key = key_of(dst, pkt.hdr);
    const common::ErrorCode rc =
        wait_tick(policy.tracker != nullptr ? &key : nullptr);
    if (rc != common::ErrorCode::kOk) return rc;
  }

  counters.add(Counter::kMessagesSent);
  counters.add(Counter::kBytesSent, n);
  // complete() is the last touch: the waiting owner may destroy `req` the
  // instant done() flips, so the outcome travels via the return value.
  req.complete();
  return common::ErrorCode::kOk;
}

}  // namespace fairmpi::p2p
