#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/p2p/sender.hpp"

namespace fairmpi {

using spc::Counter;

namespace {

// Deferrals this thread handled since its last progress() return. A
// deferral answers a tracked send as an ack does, so it is progress to a
// wait loop, but it never ends an Alg. 2 pass: a held packet draws one per
// base rto for as long as it is held (DESIGN.md §5j).
thread_local std::size_t t_deferrals = 0;

overload::Limits limits_from(const Config& cfg) noexcept {
  overload::Limits lim;
  lim.unexpected_cap = cfg.unexpected_cap;
  lim.pool_cap_bytes = cfg.payload_pool_cap_bytes;
  lim.tracker_cap = cfg.tracker_cap;
  return lim;
}

}  // namespace

Rank::Rank(Universe& uni, int id)
    : uni_(&uni), id_(id), spc_(uni.fabric().nic(id).num_contexts()),
      tracer_(uni.config().trace_entries),
      pool_(uni.fabric(), id, uni.config().assignment, uni.config().submit_ring_entries),
      engine_(pool_, *this, uni.config().progress_mode, spc_, uni.config().progress_batch,
              &tracer_),
      comms_(static_cast<std::size_t>(uni.config().max_communicators)),
      limits_(limits_from(uni.config())) {
  for (auto& slot : comms_) slot.store(nullptr, std::memory_order_relaxed);
  const Config& cfg = uni.config();
  if (cfg.trace_enabled) tracer_.enable(true);
  if (cfg.reliable) {
    tracker_ = std::make_unique<p2p::ReliabilityTracker>(
        cfg.rto_ns, cfg.rto_max_ns, cfg.max_retries, uni.retransmit_due_);
  }
  if (cfg.ft_enabled) {
    ft::FtParams fp;
    fp.heartbeat_ns = cfg.ft_heartbeat_ns;
    fp.suspect_ns = cfg.ft_suspect_ns;
    fp.strikes = cfg.ft_strikes;
    // Sized from the *config*: Universe::num_ranks() counts constructed
    // ranks, which is still growing while this constructor runs — rank r
    // would get a detector with only r cells and note_alive would index
    // past them on the first inbound packet.
    ft_ = std::make_unique<ft::FailureDetector>(cfg.num_ranks, id, fp, spc_, tracer_);
    // Scratch sized once: failure propagation must not allocate on the
    // progress path (a poll that confirms nothing touches neither vector).
    ft_probes_.reserve(static_cast<std::size_t>(cfg.num_ranks));
    ft_newly_dead_.reserve(static_cast<std::size_t>(cfg.num_ranks));
  }
}

void Rank::report_error(const common::Error& err) noexcept {
  if (err_sink_ != nullptr) err_sink_(err, err_user_);
}

Rank::~Rank() {
  for (auto& slot : comms_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

void Rank::install_comm(CommId id, std::vector<int> members) {
  FAIRMPI_CHECK(id < comms_.size());
  FAIRMPI_CHECK_MSG(comms_[id].load(std::memory_order_relaxed) == nullptr,
                    "communicator id already installed");
  auto* state = new p2p::CommState(id, uni_->num_ranks(),
                                   uni_->config().allow_overtaking, spc_,
                                   uni_->config().reliable, std::move(members));
  state->match().set_rendezvous_hook(this);
  state->match().set_overload(overload_limits(), &tracer_);
  comms_[id].store(state, std::memory_order_release);
}

p2p::CommState& Rank::comm_state(CommId id) {
  FAIRMPI_CHECK_MSG(id < comms_.size(), "communicator id out of range");
  p2p::CommState* state = comms_[id].load(std::memory_order_acquire);
  FAIRMPI_CHECK_MSG(state != nullptr, "communicator not created");
  return *state;
}

void Rank::isend(CommId comm, int dst, int tag, const void* buf, std::size_t n,
                 Request& req, std::uint64_t deadline_ns) {
  FAIRMPI_CHECK_MSG(dst >= 0 && dst < uni_->num_ranks(), "invalid destination rank");
  p2p::CommState& cs = comm_state(comm);
  if (cs.revoked()) {
    req.init_send();
    if (req.fail(common::ErrorCode::kCommRevoked)) spc_.add(Counter::kFtRevokedOps);
    report_error(common::Error{common::ErrorCode::kCommRevoked, id_, dst, comm});
    return;
  }
  if (peer_failed(dst)) {
    // Confirmed-dead destination: fail fast — uniformly for eager and
    // rendezvous — instead of feeding a permanently-down link.
    req.init_send();
    if (req.fail(common::ErrorCode::kPeerFailed)) spc_.add(Counter::kFtPeerFailedOps);
    report_error(common::Error{common::ErrorCode::kPeerFailed, id_, dst, 0});
    return;
  }
  if (n > uni_->config().eager_limit) {
    FAIRMPI_CHECK_MSG(tag >= 0, "negative tags are reserved (wildcards/internal)");
    tracer_.record(trace::Event::kRndvRts, static_cast<std::uint32_t>(dst),
                   static_cast<std::uint32_t>(n));
    rndv_isend(comm, dst, tag, buf, n, req, deadline_ns);
    return;
  }
  tracer_.record(trace::Event::kSend, static_cast<std::uint32_t>(dst),
                 static_cast<std::uint32_t>(tag));
  p2p::SendPolicy policy{
      tracker_.get(), uni_->config().send_retry_limit,
      uni_->config().reliability_window,
      [](void* user) { return static_cast<Rank*>(user)->progress(); }, this};
  if (ft_ != nullptr) {
    // Mid-wait escape hatch: a send blocked on this peer's window/ring when
    // the detector confirms its death fails typed instead of burning the
    // whole retry budget into a severed link.
    policy.peer_failed = [](void* user, int peer) {
      return static_cast<Rank*>(user)->peer_failed(peer);
    };
    policy.peer_failed_user = this;
  }
  policy.limits = overload_limits();
  policy.deadline_ns = deadline_ns;
  // Outcome comes back by value: completing `req` hands it back to the
  // waiting owner, which may destroy it before we could read failed().
  const common::ErrorCode ec = p2p::eager_send(cs, pool_, engine_, spc_,
                                               id_, dst, tag, buf, n, req, policy);
  if (ec != common::ErrorCode::kOk) {
    report_error(common::Error{ec, id_, dst, 0});
  }
}

void Rank::irecv(CommId comm, int src, int tag, void* buf, std::size_t capacity,
                 Request& req, std::uint64_t deadline_ns) {
  FAIRMPI_CHECK_MSG(src == kAnySource || (src >= 0 && src < uni_->num_ranks()),
                    "invalid source rank");
  FAIRMPI_CHECK_MSG(tag == kAnyTag || tag >= 0, "invalid tag filter");
  req.init_recv(buf, capacity, src, tag, deadline_ns);
  tracer_.record(trace::Event::kRecvPost, static_cast<std::uint32_t>(src + 1),
                 static_cast<std::uint32_t>(tag));
  comm_state(comm).match().post(&req);
  // Post, then arm: a service step that scanned before the post sees this
  // arm, one that scans after sees the posted deadline.
  if (deadline_ns != 0) arm_service(deadline_ns);
}

void Rank::send(CommId comm, int dst, int tag, const void* buf, std::size_t n) {
  Request req;
  isend(comm, dst, tag, buf, n, req);
  wait(req);  // eager sends complete at injection; wait() is a formality
}

Status Rank::recv(CommId comm, int src, int tag, void* buf, std::size_t capacity) {
  Request req;
  irecv(comm, src, tag, buf, capacity, req);
  wait(req);
  return req.status();
}

// The wait loops below use SpinWait, not bare cpu_relax(): completion
// depends on a peer thread running (to inject, progress, or ack), so on an
// oversubscribed host a pure spinner would burn its whole scheduler quantum
// while that peer sits runnable — quantizing throughput at one window per
// quantum (the Multirate.SinglePairDeliversAtPlausibleRate failure mode on
// the 1-core CI box).

void Rank::wait(Request& req) {
  SpinWait waiter;
  while (!req.done()) {
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
}

bool Rank::test(Request& req) {
  if (req.done()) return true;
  progress();
  return req.done();
}

void Rank::wait_all(Request* const* reqs, std::size_t n) {
  SpinWait waiter;
  for (;;) {
    bool all_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!reqs[i]->done()) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
}

std::size_t Rank::wait_any(Request* const* reqs, std::size_t n) {
  FAIRMPI_CHECK_MSG(n > 0, "wait_any needs at least one request");
  SpinWait waiter;
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i]->done()) return i;
    }
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
}

bool Rank::iprobe(CommId comm, int src, int tag, Status* status) {
  progress();
  return comm_state(comm).match().probe(src, tag, status);
}

Status Rank::probe(CommId comm, int src, int tag) {
  Status status;
  SpinWait waiter;
  while (!comm_state(comm).match().probe(src, tag, &status)) {
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
  return status;
}

std::size_t Rank::progress() {
  // Deferred rendezvous protocol work first (runs with no engine lock
  // held — see p2p/rendezvous.hpp), then the progress engine proper.
  drain_control();
  const progress::ProgressEngine::Visit v = engine_.progress();
  // Services run after the drain, so a message that arrived this visit
  // matches before its receive's deadline is checked. Until one is due,
  // this is two relaxed loads and at most one clock read.
  const std::uint64_t due = std::min(service_due_.load(std::memory_order_relaxed),
                                     uni_->retransmit_due_.load(std::memory_order_relaxed));
  if (due != kNever) {
    const std::uint64_t now = now_ns();
    if (now >= due) service(now);
  }
  // Acks a drain could not send (a full ring, or a drain under an instance
  // lock) leave now — waiting for the next drain_control would add an rto
  // of latency per hop under load.
  flush_acks();
  if (v.completions != 0) {
    tracer_.record(trace::Event::kProgress, static_cast<std::uint32_t>(v.completions));
  }
  return v.completions + v.acked + std::exchange(t_deferrals, 0);
}

bool Rank::inject_raw(int dst, fabric::Packet&& pkt) {
  const int k = pool_.id_for_thread();
  cri::CommResourceInstance& inst = pool_.instance(k);
  // Same lock-free submission path as eager_send (DESIGN.md §5f): control
  // traffic (acks, retransmits) rides the ring when the instance is busy
  // instead of blocking on the lock.
  return inst.inject(dst, pkt, spc_);
}

void Rank::answer(AckBatch& acks, const fabric::WireHeader& hdr, p2p::ControlMsg::Kind kind) {
  p2p::queue_ack(acks, p2p::ControlMsg{kind, static_cast<int>(hdr.src_rank), hdr.comm_id,
                                       /*local_cookie=*/0, /*remote_cookie=*/hdr.imm,
                                       hdr.seq, static_cast<std::uint16_t>(hdr.opcode)});
}

void Rank::enqueue_acks(const p2p::ControlMsg* msgs, std::size_t n) {
  LockGuard guard(control_lock_);
  for (std::size_t i = 0; i < n; ++i) p2p::queue_ack(acks_, msgs[i]);
  acks_pending_.store(true, std::memory_order_relaxed);
}

bool Rank::send_notice(const p2p::ControlMsg& msg) {
  // Reliability ack: echo the received packet's identifying key so the
  // sender can retire its tracked clone; a kAck names a run of `count`
  // consecutive seqs from the key's, the count riding as a 4-byte
  // payload. Unreliable by design — if this ack is lost the peer
  // retransmits and we re-ack. A deferral notice (§5h) carries one key
  // under its own opcode, so the sender keeps the packet and re-presents
  // it soon instead of retiring it.
  const bool is_ack = msg.kind == p2p::ControlMsg::Kind::kSendPacketAck;
  fabric::Packet ack;
  ack.hdr.opcode = is_ack ? fabric::Opcode::kAck : fabric::Opcode::kDefer;
  ack.hdr.src_rank = static_cast<std::uint16_t>(id_);
  ack.hdr.comm_id = msg.comm;
  ack.hdr.tag = static_cast<std::int32_t>(msg.ack_opcode);
  ack.hdr.seq = msg.seq;
  ack.hdr.imm = msg.remote_cookie;
  if (is_ack) ack.set_payload(&msg.ack_count, sizeof msg.ack_count);
  if (!inject_raw(msg.peer, std::move(ack))) return false;
  if (is_ack) {
    spc_.add(Counter::kAcksSent);
    tracer_.record(trace::Event::kAckSent, static_cast<std::uint32_t>(msg.peer), msg.seq);
  }
  return true;
}

void Rank::flush_acks() {
  // Up to kAckFlushBatch queued notices leave per control_lock_ hold. The
  // queue holds only what a drain could not send (a full ring, or a
  // packet handled under an instance lock), so it is usually empty and
  // this returns on the relaxed load.
  constexpr std::size_t kAckFlushBatch = 8;
  // lint: allow(relaxed-sync) emptiness hint only; the queue is read under control_lock_
  while (acks_pending_.load(std::memory_order_relaxed)) {
    std::array<p2p::ControlMsg, kAckFlushBatch> batch;
    std::size_t n = 0;
    {
      LockGuard guard(control_lock_);
      for (; n < batch.size() && !acks_.empty(); ++n) {
        batch[n] = acks_.front();
        acks_.pop_front();
      }
      acks_pending_.store(!acks_.empty(), std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!send_notice(batch[i])) {
        // Peer's ring is full: requeue the rest, oldest first, and stop —
        // pushing harder only spins.
        LockGuard guard(control_lock_);
        for (std::size_t j = n; j-- > i;) acks_.push_front(batch[j]);
        acks_pending_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

std::uint64_t Rank::reliability_sweep(std::uint64_t now) {
  // Any rank's service step may sweep this tracker, concurrently with
  // another's: the sweep claims each expired entry under the tracker lock
  // (its deadline moves one rto out), so no two sweeps clone one entry.
  // lint: allow(hotpath-alloc) only reached when packets expired (lossy run)
  std::vector<p2p::ReliabilityTracker::Resend> resends;
  std::vector<p2p::ReliabilityTracker::Failure> failures;
  const std::uint64_t next = tracker_->sweep(now, resends, failures);
  for (auto& r : resends) {
    const p2p::PacketKey key = p2p::key_of(r.dst, r.pkt.hdr);
    // Single attempt: if the ring is full the tracker still holds the
    // entry, so a later sweep simply tries again — no nested retry loop.
    // Only a clone that actually reached the wire is charged against the
    // retry budget (confirm applies the backoff); a ring-full failure is
    // the sender's own congestion, not evidence of loss.
    if (inject_raw(r.dst, std::move(r.pkt))) {
      spc_.add(Counter::kRetransmits);
      tracer_.record(trace::Event::kRetransmit, static_cast<std::uint32_t>(r.dst),
                     key.seq);
      tracker_->confirm_retransmit(key, now);
    }
  }
  for (const auto& f : failures) {
    // Typed propagation: entries purged because the peer was confirmed dead
    // carry kPeerFailed (counted separately) — they are not retry failures.
    spc_.add(f.code == common::ErrorCode::kPeerFailed ? Counter::kFtPeerFailedOps
                                                      : Counter::kReliabilityErrors);
    report_error(common::Error{f.code, id_, static_cast<int>(f.key.peer), f.key.seq});
  }
  return next;
}

// --- ft layer (DESIGN.md §5g) ---

void Rank::ft_poll(std::uint64_t now) {
  ft_probes_.clear();
  ft_newly_dead_.clear();
  ft_->poll(now, ft_probes_, ft_newly_dead_);
  // Classification done under the detector lock; everything below runs
  // with NO detector lock held (heartbeat injection takes CRI locks,
  // propagation takes match/reliability/rndv locks — all ranked away
  // from kFtDetector in both directions; see lockcheck.hpp).
  for (const int dst : ft_probes_) send_heartbeat(dst);
  for (const int peer : ft_newly_dead_) on_peer_dead(peer);
}

void Rank::send_heartbeat(int dst) {
  fabric::Packet hb;
  hb.hdr.opcode = fabric::Opcode::kHeartbeat;
  hb.hdr.src_rank = static_cast<std::uint16_t>(id_);
  hb.hdr.comm_id = kWorldComm;
  // Single attempt, never tracked: a heartbeat lost to backpressure or the
  // fault model is simply re-sent on the next idle round.
  if (inject_raw(dst, std::move(hb))) {
    spc_.add(Counter::kFtHeartbeatsSent);
  }
}

void Rank::on_peer_dead(int peer) {
  // 1. Tracked sends toward the peer fail typed (not retry-burned); the
  //    tracker also latches the peer so entries tracked by racing senders
  //    are caught by the next sweep.
  if (tracker_ != nullptr) {
    // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
    std::vector<p2p::ReliabilityTracker::Failure> failures;
    tracker_->fail_peer(peer, failures);
    for (const auto& f : failures) {
      spc_.add(Counter::kFtPeerFailedOps);
      report_error(common::Error{common::ErrorCode::kPeerFailed, id_, peer, f.key.seq});
    }
  }
  // 2. Posted receives filtered on the peer fail on every installed
  //    communicator (and future ones fail at post; match_engine.cpp).
  for (auto& slot : comms_) {
    p2p::CommState* cs = slot.load(std::memory_order_acquire);
    if (cs != nullptr) {
      (void)cs->match().fail_source(peer);
    }
  }
  // 3. In-flight rendezvous transfers to/from the peer fail.
  fail_rendezvous_peer(peer);
  // 4. One summary error so a sink-only consumer hears about the death
  //    even with zero outstanding operations.
  report_error(common::Error{common::ErrorCode::kPeerFailed, id_, peer, 0});
}

void Rank::fail_rendezvous_peer(int peer) {
  // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
  std::vector<p2p::Request*> victims;
  // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
  std::vector<std::unique_ptr<p2p::RndvSendState>> dead_sends;
  {
    LockGuard guard(rndv_lock_);
    for (auto it = rndv_sends_.begin(); it != rndv_sends_.end();) {
      if (it->second->dst == peer) {
        // Claim by extraction, exactly like the kSendData drain — whoever
        // extracts owns the state, so no deliverer can race us here.
        victims.push_back(it->second->request);
        dead_sends.push_back(std::move(it->second));
        it = rndv_sends_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [cookie, st] : rndv_recvs_) {
      if (st->status.source == peer && !st->failed) {
        // Receives are tombstoned, NOT erased: a progress thread may hold
        // the state pointer from before the death was confirmed (see
        // rendezvous.hpp). handle_rndv_data checks `failed` under this
        // lock, so no new fragment touches the buffer from here on.
        st->failed = true;
        victims.push_back(st->request);
      }
    }
  }
  for (p2p::Request* req : victims) {
    if (req->fail(common::ErrorCode::kPeerFailed)) {
      spc_.add(Counter::kFtPeerFailedOps);
    }
  }
}

// --- overload control & deadlines (DESIGN.md §5h) ---

void Rank::arm_service(std::uint64_t due) noexcept {
  // Pairs with the fence in service(): either that step's scan sees what
  // the caller published, or this load sees the step's raise and lowers it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  lower_due(service_due_, due);
}

void Rank::service(std::uint64_t now) {
  if (servicing_.exchange(true, std::memory_order_acquire)) return;
  // Raise, fence, then scan: an arm that lands after the raise survives it,
  // and the scan sees anything published before the arm's fence.
  service_due_.store(kNever, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::uint64_t next = expire_deadlines(now);
  if (tracker_ != nullptr) uni_->sweep_reliability(now);
  // The ft detector's cadence: it runs once its due time passes and is then
  // due half a probe interval later, so a strike round is never skipped
  // wholesale.
  if (ft_ != nullptr) {
    if (now >= ft_due_) {
      ft_poll(now);
      const std::uint64_t period = uni_->config().ft_heartbeat_ns / 2;
      ft_due_ = period > kNever - now ? kNever : now + period;
    }
    next = std::min(next, ft_due_);
  }
  lower_due(service_due_, next);
  servicing_.store(false, std::memory_order_release);
}

std::uint64_t Rank::expire_deadlines(std::uint64_t now) {
  std::uint64_t next = kNever;
  for (auto& slot : comms_) {
    p2p::CommState* cs = slot.load(std::memory_order_acquire);
    if (cs != nullptr) next = std::min(next, cs->match().expire_deadlines(now));
  }
  struct Victim {
    p2p::Request* req;
    int peer;
  };
  // lint: allow(hotpath-alloc) allocates only once a rendezvous transfer expires
  std::vector<Victim> victims;
  // Tombstone, not extraction (the ft purge's rule): the peer's ack or data
  // may still arrive, and the drains must find the state to discard it
  // instead of touching a buffer the owner already reclaimed.
  const auto expire = [&](auto& registry, auto peer_of) {
    for (auto& [cookie, st] : registry) {
      const std::uint64_t dl =
          st->failed || st->request == nullptr ? 0 : st->request->deadline();
      if (dl == 0) continue;
      if (dl <= now) {
        st->failed = true;
        victims.push_back(Victim{st->request, peer_of(*st)});
      } else {
        next = std::min(next, dl);
      }
    }
  };
  {
    LockGuard guard(rndv_lock_);
    expire(rndv_sends_, [](const p2p::RndvSendState& st) { return st.dst; });
    expire(rndv_recvs_, [](const p2p::RndvRecvState& st) { return st.status.source; });
  }
  for (const Victim& v : victims) {
    if (v.req->fail(common::ErrorCode::kDeadlineExceeded)) {
      spc_.add(Counter::kDeadlineExceededOps);
      tracer_.record(trace::Event::kDeadline,
                     static_cast<std::uint32_t>(v.peer + 1), 0);
      report_error(common::Error{common::ErrorCode::kDeadlineExceeded, id_,
                                 v.peer, 0});
    }
  }
  return next;
}

bool Rank::cancel_request(p2p::Request* req) {
  // Rendezvous cancel: tombstone whichever registry holds the request
  // (ack/data may still arrive; the drains discard against `failed`), then
  // settle outside the lock.
  int peer = -1;
  {
    LockGuard guard(rndv_lock_);
    for (auto& [cookie, st] : rndv_sends_) {
      if (st->request == req && !st->failed) {
        st->failed = true;
        peer = st->dst;
        break;
      }
    }
    if (peer < 0) {
      for (auto& [cookie, st] : rndv_recvs_) {
        if (st->request == req && !st->failed) {
          st->failed = true;
          peer = st->status.source;
          break;
        }
      }
    }
  }
  if (peer < 0) return false;  // completed/failed concurrently, or not ours
  if (!req->fail(common::ErrorCode::kCancelled)) return false;
  spc_.add(Counter::kCancelledOps);
  tracer_.record(trace::Event::kCancel, static_cast<std::uint32_t>(peer + 1), 0);
  return true;
}

std::size_t Rank::handle_packets(fabric::Packet* pkts, std::size_t n, std::size_t& acked) {
  FAIRMPI_CHECK(n <= AckBatch::capacity());
  std::size_t completions = 0;
  AckBatch acks;
  // Consecutive envelopes for one communicator match as one run, under one
  // hold of its match lock (DESIGN.md §5 rule 3). Any other packet, or a
  // dropped one, ends the pending run first, so every packet is still
  // handled in drain order.
  std::size_t first = 0;  // pending run: pkts[first, first + len)
  std::size_t len = 0;
  const auto end_run = [&] {
    if (len != 0) completions += match_run(pkts + first, len, acks);
    len = 0;
  };
  // One liveness timestamp for the whole batch: its packets were all
  // drained now, so a per-packet clock read would only cost time.
  const std::uint64_t heard_ns = ft_ != nullptr ? now_ns() : 0;
  for (std::size_t i = 0; i < n; ++i) {
    fabric::Packet& pkt = pkts[i];
    if (!validate_inbound(pkt, heard_ns)) {
      end_run();
      continue;
    }
    const bool envelope = pkt.hdr.opcode == fabric::Opcode::kEager ||
                          pkt.hdr.opcode == fabric::Opcode::kRndvRts;
    if (envelope && len != 0 && pkt.hdr.comm_id == pkts[first].hdr.comm_id) {
      ++len;
      continue;
    }
    end_run();
    if (envelope) {
      first = i;
      len = 1;
    } else {
      completions += receive(std::move(pkt), acks, acked);
    }
  }
  end_run();
  if (acks.size() == 0) return completions;  // unreliable ranks always end here
  // The batch's notices merged into runs on the stack; they leave now, so
  // a drain takes control_lock_ only for what it cannot send. A full ring
  // stops the batch, as it stops flush_acks.
  const p2p::ControlMsg* m = acks.begin();
  while (m != acks.end() && send_notice(*m)) ++m;
  if (m != acks.end()) enqueue_acks(m, static_cast<std::size_t>(acks.end() - m));
  return completions;
}

bool Rank::validate_inbound(const fabric::Packet& pkt, std::uint64_t heard_ns) {
  // Structural validation before anything dereferences header fields: a
  // corrupted opcode or rank id is counted and dropped, never dispatched.
  if (!fabric::validate_structure(pkt, uni_->num_ranks())) {
    spc_.add(Counter::kHeaderDrops);
    return false;
  }
  if (tracker_ != nullptr && !fabric::verify_checksum(pkt)) {
    spc_.add(Counter::kCsumDrops);
    tracer_.record(trace::Event::kCsumDrop, pkt.hdr.src_rank, pkt.hdr.seq);
    return false;
  }
  // Liveness piggybacking: every validated inbound packet — any opcode —
  // refreshes its source's epoch, so a peer with ANY traffic toward us
  // never needs explicit heartbeats.
  if (ft_ != nullptr) {
    ft_->note_alive(static_cast<int>(pkt.hdr.src_rank), heard_ns);
  }
  return true;
}

std::size_t Rank::match_run(fabric::Packet* pkts, std::size_t n, AckBatch& acks) {
  // Both opcodes carry a matching envelope; RTS delivery diverts to the
  // rendezvous hook inside the engine.
  match::MatchEngine& eng = comm_state(pkts[0].hdr.comm_id).match();
  if (tracker_ == nullptr) return eng.incoming(pkts, n, nullptr);
  // The headers outlive the moves, so each admission verdict can be
  // answered on the wire afterwards, in drain order.
  std::array<fabric::WireHeader, progress::ProgressEngine::kMaxDrainBatch> hdrs;
  std::array<match::Admission, progress::ProgressEngine::kMaxDrainBatch> verdicts;
  for (std::size_t i = 0; i < n; ++i) fabric::copy_header(hdrs[i], pkts[i].hdr);
  const std::size_t delivered = eng.incoming(pkts, n, verdicts.data());
  for (std::size_t i = 0; i < n; ++i) {
    answer(acks, hdrs[i],
           verdicts[i] == match::Admission::kHeld ? p2p::ControlMsg::Kind::kSendPacketDefer
                                                  : p2p::ControlMsg::Kind::kSendPacketAck);
  }
  return delivered;
}

std::size_t Rank::receive(fabric::Packet&& pkt, AckBatch& acks, std::size_t& acked) {
  if (pkt.hdr.opcode == fabric::Opcode::kHeartbeat) {
    // Consumed before the ack path on purpose: heartbeats are pure liveness
    // evidence — never acked, never tracked; a lost one is recovered by the
    // next probe round.
    spc_.add(Counter::kFtHeartbeatsReceived);
    return 0;
  }
  if (tracker_ != nullptr) {
    if (pkt.hdr.opcode == fabric::Opcode::kAck) {
      // A ranged ack: its 4-byte payload counts the run of seqs it names.
      // A count of 0 or past the run bound is malformed: dropped whole.
      std::uint32_t count = 0;
      if (pkt.hdr.payload_size == sizeof count) {
        std::memcpy(&count, pkt.payload(), sizeof count);
      }
      if (count == 0 || count > p2p::kMaxAckRun) {
        spc_.add(Counter::kHeaderDrops);
        return 0;
      }
      spc_.add(Counter::kAcksReceived);
      tracer_.record(trace::Event::kAckRecv, pkt.hdr.src_rank, pkt.hdr.seq);
      acked += tracker_->ack_range(p2p::key_of_ack(pkt.hdr), count);
      return 0;
    }
    if (pkt.hdr.opcode == fabric::Opcode::kDefer) {
      // The receiver held the packet at its unexpected cap (§5h): restart
      // its retry count and re-present it on the base rto.
      if (tracker_->defer(p2p::key_of_ack(pkt.hdr), now_ns())) ++t_deferrals;
      return 0;
    }
    // Ack every structurally valid packet — duplicates included, because
    // the duplicate usually means our previous ack was the casualty.
    // (Matchable envelopes never get here: match_run answers their
    // admission verdicts.)
    answer(acks, pkt.hdr, p2p::ControlMsg::Kind::kSendPacketAck);
  } else if (pkt.hdr.opcode == fabric::Opcode::kAck ||
             pkt.hdr.opcode == fabric::Opcode::kDefer) {
    // Reliability off: there is no tracker to retire the notice against.
    spc_.add(Counter::kHeaderDrops);
    return 0;
  }
  switch (pkt.hdr.opcode) {
    case fabric::Opcode::kRndvAck:
      return handle_rndv_ack(pkt);
    case fabric::Opcode::kRndvData:
      return handle_rndv_data(pkt);
    case fabric::Opcode::kEager:
    case fabric::Opcode::kRndvRts:  // envelopes: match_run
    case fabric::Opcode::kAck:
    case fabric::Opcode::kDefer:
    case fabric::Opcode::kHeartbeat:
    case fabric::Opcode::kInvalid:
      break;  // all consumed above or by handle_packets; unreachable
  }
  FAIRMPI_CHECK_MSG(false, "invalid opcode on the wire");
  return 0;
}

std::size_t Rank::handle_completion(const fabric::Completion& c) {
  switch (c.kind) {
    case fabric::Completion::Kind::kSendDone: {
      auto* req = static_cast<p2p::Request*>(c.cookie);
      req->complete();
      return 1;
    }
    case fabric::Completion::Kind::kRmaDone: {
      // The cookie is the initiating window's pending-operation counter
      // (see rma/window.cpp). Handled here too because a generic progress
      // call may drain RMA completions before the flush path sees them.
      auto* pending = static_cast<std::atomic<std::uint64_t>*>(c.cookie);
      pending->fetch_sub(1, std::memory_order_release);
      return 1;
    }
    case fabric::Completion::Kind::kNone:
      break;
  }
  FAIRMPI_CHECK_MSG(false, "invalid completion on a CQ");
  return 0;
}

// --- Communicator forwarding (group-local <-> global translation here) ---

int Communicator::global_of(int local) const noexcept {
  const p2p::CommState& cs = rank_->comm_state(id_);
  return cs.has_group() ? cs.to_global(local) : local;
}

int Communicator::rank() const noexcept {
  const p2p::CommState& cs = rank_->comm_state(id_);
  return cs.has_group() ? cs.to_local(rank_->id()) : rank_->id();
}

int Communicator::size() const noexcept {
  const p2p::CommState& cs = rank_->comm_state(id_);
  return cs.has_group() ? cs.group_size() : rank_->universe().num_ranks();
}

bool Communicator::revoked() const noexcept {
  return rank_->comm_state(id_).revoked();
}

// Reserved-tag guard (bugfix, DESIGN.md §5i): tags at or above
// p2p::kReservedTagBase carry collective lanes and barrier rounds. A user
// op posted there through the public Communicator API would silently match
// against (or steal) collective traffic — fail it typed at post time
// instead. Engine internals (coll, barrier) bypass via the Rank-level ops.
bool Communicator::reject_reserved_tag(Request& req, int tag, int peer,
                                       bool is_send) const {
  if (tag == kAnyTag || tag < p2p::kReservedTagBase) return false;
  if (is_send) {
    req.init_send();
  } else {
    req.init_recv(nullptr, 0, peer, tag, 0);
  }
  if (req.fail(common::ErrorCode::kReservedTag)) {
    rank_->counters().add(Counter::kReservedTagRejects);
  }
  rank_->report_error(common::Error{common::ErrorCode::kReservedTag, rank_->id(), peer,
                                    static_cast<std::uint64_t>(tag)});
  return true;
}

void Communicator::isend(int dst, int tag, const void* buf, std::size_t n, Request& req,
                         std::uint64_t deadline_ns) {
  if (reject_reserved_tag(req, tag, dst, /*is_send=*/true)) return;
  rank_->isend(id_, global_of(dst), tag, buf, n, req, deadline_ns);
}

void Communicator::irecv(int src, int tag, void* buf, std::size_t capacity, Request& req,
                         std::uint64_t deadline_ns) {
  if (reject_reserved_tag(req, tag, src, /*is_send=*/false)) return;
  rank_->irecv(id_, src == kAnySource ? src : global_of(src), tag, buf, capacity, req,
               deadline_ns);
}

void Communicator::send(int dst, int tag, const void* buf, std::size_t n) {
  Request req;
  isend(dst, tag, buf, n, req);  // through the reserved-tag guard
  rank_->wait(req);
}

Status Communicator::recv(int src, int tag, void* buf, std::size_t capacity) {
  Status status;
  (void)recv_checked(src, tag, buf, capacity, &status);
  return status;
}

// Checked ops honour Config::op_deadline_ns (§5h): 0 keeps the historical
// wait-forever semantics; nonzero turns every checked op into a bounded
// call that fails typed kDeadlineExceeded instead of hanging.
static std::uint64_t checked_deadline(Rank& rank) {
  const std::uint64_t rel = rank.universe().config().op_deadline_ns;
  return rel == 0 ? 0 : now_ns() + rel;
}

common::ErrorCode Communicator::send_checked(int dst, int tag, const void* buf,
                                             std::size_t n) {
  Request req;
  isend(dst, tag, buf, n, req, checked_deadline(*rank_));
  rank_->wait(req);
  return req.error();
}

common::ErrorCode Communicator::recv_checked(int src, int tag, void* buf,
                                             std::size_t capacity, Status* status) {
  Request req;
  irecv(src, tag, buf, capacity, req, checked_deadline(*rank_));
  rank_->wait(req);
  if (status != nullptr) {
    *status = req.status();
    // Status carries the wire (global) source; hand back the group-local id.
    const p2p::CommState& cs = rank_->comm_state(id_);
    if (cs.has_group() && status->source != kAnySource) {
      status->source = cs.to_local(status->source);
    }
  }
  return req.error();
}

void Communicator::barrier() { (void)barrier_checked(); }

common::ErrorCode Communicator::barrier_checked() {
  // Dissemination barrier: log2(n) rounds of paired send/recv on reserved
  // tags. Reserved tag space starts at kBarrierTagBase; user tags in the
  // examples/benches stay far below it. Rank arithmetic is group-local;
  // translation happens at the isend/irecv boundary below.
  constexpr int kBarrierTagBase = 1 << 30;
  const int n = size();
  const int me = rank();
  if (n == 1) return common::ErrorCode::kOk;
  // One deadline for the whole barrier, computed at entry: the rounds are
  // serial, so per-round deadlines would let a barrier overrun by log2(n)×.
  const std::uint64_t deadline = checked_deadline(*rank_);
  unsigned char token = 0;
  for (int step = 0, dist = 1; dist < n; ++step, dist <<= 1) {
    if (revoked()) return common::ErrorCode::kCommRevoked;
    const int to = (me + dist) % n;
    const int from = ((me - dist) % n + n) % n;
    Request sreq, rreq;
    unsigned char in = 0;
    rank_->isend(id_, global_of(to), kBarrierTagBase + step, &token, 1, sreq, deadline);
    rank_->irecv(id_, global_of(from), kBarrierTagBase + step, &in, 1, rreq, deadline);
    rank_->wait(rreq);
    rank_->wait(sreq);
    // A dead partner (kPeerFailed) or a concurrent revoke fails the round's
    // requests typed — surface the first one instead of hanging (§5g).
    if (rreq.failed()) return rreq.error();
    if (sreq.failed()) return sreq.error();
  }
  return common::ErrorCode::kOk;
}

}  // namespace fairmpi
