// Rendezvous protocol implementation (Rank methods). Protocol overview and
// lock discipline in include/fairmpi/p2p/rendezvous.hpp.
#include <cstring>
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"

namespace fairmpi {

using fabric::Opcode;
using fabric::Packet;
using p2p::ControlMsg;
using p2p::RndvRecvState;
using p2p::RndvSendState;
using p2p::RtsBody;
using spc::Counter;

void Rank::rndv_isend(CommId comm, int dst, int tag, const void* buf, std::size_t n,
                      Request& req, std::uint64_t deadline_ns) {
  req.init_send(deadline_ns);
  // Cancel/deadline route through the rendezvous registry (tombstone the
  // state, then settle — Rank::cancel_request). Installed before the state
  // is registered: a cancel racing this call may observe neither and
  // report false, which is the documented best-effort window.
  req.set_cancel_scope(this);

  auto state = std::make_unique<RndvSendState>();
  state->data = static_cast<const std::byte*>(buf);
  state->total = n;
  state->dst = dst;
  state->comm = comm;
  state->request = &req;
  state->born_ns = now_ns();
  const std::uint32_t rts_seq = comm_state(comm).next_seq(dst);

  std::uint64_t cookie = 0;
  {
    LockGuard guard(rndv_lock_);
    cookie = next_cookie_++;
    rndv_sends_.emplace(cookie, std::move(state));
  }
  if (deadline_ns != 0) arm_service(deadline_ns);

  // The RTS is a sequence-numbered envelope like any eager message — it is
  // what the receiver matches, preserving the non-overtaking guarantee for
  // large messages too.
  Packet rts;
  rts.hdr.opcode = Opcode::kRndvRts;
  rts.hdr.src_rank = static_cast<std::uint16_t>(id_);
  rts.hdr.comm_id = comm;
  rts.hdr.tag = tag;
  rts.hdr.seq = rts_seq;
  const RtsBody body{n, cookie};
  rts.set_payload(&body, sizeof body);
  inject_control(dst, std::move(rts));
}

void Rank::on_rts_matched(p2p::Request* req, const Packet& rts) {
  // Matching lock is held: record the transfer and defer the ack.
  const RtsBody body = p2p::read_rts_body(rts);

  auto state = std::make_unique<RndvRecvState>();
  state->request = req;
  state->buffer = static_cast<std::byte*>(req->buffer());
  state->capacity = req->capacity();
  state->total = body.total;
  state->remaining.store(body.total, std::memory_order_relaxed);
  state->status.source = static_cast<int>(rts.hdr.src_rank);
  state->status.tag = rts.hdr.tag;
  state->status.size = body.total;
  state->status.truncated = body.total > req->capacity();
  state->born_ns = now_ns();
  if (uni_->config().reliable) {
    // Fragment dedup bitmap: one bit per expected RndvData fragment.
    const std::uint64_t frag = uni_->config().rndv_frag_bytes;
    const std::uint64_t nfrags = body.total == 0 ? 0 : (body.total + frag - 1) / frag;
    state->frag_words = static_cast<std::size_t>((nfrags + 63) / 64);
    if (state->frag_words != 0) {
      state->frag_seen =
          std::make_unique<std::atomic<std::uint64_t>[]>(state->frag_words);
    }
  }

  std::uint64_t cookie = 0;
  {
    LockGuard guard(rndv_lock_);
    cookie = next_cookie_++;
    rndv_recvs_.emplace(cookie, std::move(state));
  }
  // Scope handoff: the request left the engine's posted lists when it
  // matched, so cancel/deadline now belong to the rendezvous registry.
  req->set_cancel_scope(this);
  // Re-arm the rank gate: the engine sweep may have raised it past this
  // request's deadline between the match and this registration.
  if (req->deadline() != 0) arm_service(req->deadline());
  {
    LockGuard guard(control_lock_);
    control_.push_back(ControlMsg{ControlMsg::Kind::kSendAck,
                                  static_cast<int>(rts.hdr.src_rank), rts.hdr.comm_id,
                                  cookie, body.sender_cookie});
    control_pending_.store(true, std::memory_order_relaxed);
  }
}

std::size_t Rank::handle_rndv_ack(const Packet& pkt) {
  // Instance lock is held by the progress path: defer the (potentially
  // large) data transmission to the control queue.
  std::uint64_t recv_cookie = 0;
  std::memcpy(&recv_cookie, pkt.payload(), sizeof recv_cookie);
  {
    LockGuard guard(control_lock_);
    control_.push_back(ControlMsg{ControlMsg::Kind::kSendData,
                                  static_cast<int>(pkt.hdr.src_rank), pkt.hdr.comm_id,
                                  pkt.hdr.imm, recv_cookie});
    control_pending_.store(true, std::memory_order_relaxed);
  }
  return 0;
}

std::size_t Rank::handle_rndv_data(const Packet& pkt) {
  RndvRecvState* state = nullptr;
  {
    LockGuard guard(rndv_lock_);
    const auto it = rndv_recvs_.find(pkt.hdr.imm);
    if (it == rndv_recvs_.end()) {
      // Reliable fabric: a retransmitted fragment can outlive its transfer
      // (the completion erased the state after every byte landed).
      FAIRMPI_CHECK_MSG(tracker_ != nullptr, "rendezvous data for unknown transfer");
      spc_.add(Counter::kDupDiscards);
      return 0;
    }
    state = it->second.get();
    if (state->failed) {
      // ft tombstone: the transfer's request already failed kPeerFailed;
      // the user may have freed the buffer, so a straggling fragment (in
      // an RX ring since before the death was confirmed) must not land.
      spc_.add(Counter::kDupDiscards);
      return 0;
    }
    // Dedup under the registry lock: losers must not touch `state` after
    // release (the transfer may complete and free it); winners keep it
    // alive through `remaining`, which cannot reach zero until they
    // subtract their own fragment below.
    if (!state->mark_fragment(pkt.hdr.seq)) {
      spc_.add(Counter::kDupDiscards);
      return 0;
    }
  }

  const std::uint64_t offset =
      static_cast<std::uint64_t>(pkt.hdr.seq) * uni_->config().rndv_frag_bytes;
  const std::uint64_t bytes = pkt.hdr.payload_size;
  if (offset < state->capacity && bytes != 0) {
    const std::uint64_t room = state->capacity - offset;
    std::memcpy(state->buffer + offset, pkt.payload(),
                static_cast<std::size_t>(bytes < room ? bytes : room));
  }

  const std::uint64_t left =
      state->remaining.fetch_sub(bytes, std::memory_order_acq_rel) - bytes;
  if (left != 0) return 0;

  // Last fragment: publish completion and retire the transfer. Counters
  // only on the settle win — the request may have been failed by a racing
  // death confirmation (the settled_ CAS in request.hpp arbitrates).
  if (state->request->complete(state->status)) {
    spc_.add(Counter::kMessagesReceived);
    spc_.add(Counter::kBytesReceived, state->total);
    tracer_.record(trace::Event::kRndvDone,
                   static_cast<std::uint32_t>(state->status.source),
                   static_cast<std::uint32_t>(state->total));
  }
  {
    LockGuard guard(rndv_lock_);
    rndv_recvs_.erase(pkt.hdr.imm);
  }
  return 1;
}

void Rank::inject_control(int dst, Packet&& pkt) {
  // Reliable mode: register for retransmit before the first attempt (the
  // ack can race back through a fast peer), and bound the backpressure
  // loop — on exhaustion the entry stays tracked, so the retransmit sweep
  // keeps trying (or eventually surfaces kRetryExhausted). Acks themselves
  // are never tracked; their loss is what retransmits exist for.
  const bool tracked =
      tracker_ != nullptr && pkt.hdr.opcode != Opcode::kAck;
  if (tracked) tracker_->track(dst, pkt, now_ns());
  // Tracked packets only need a handful of attempts: the retransmit sweep
  // owns recovery from there, so a long spin here would just stall the
  // control drain. Untracked control on a pristine fabric keeps the
  // original unbounded loop (the peer always drains eventually).
  constexpr std::uint64_t kTrackedAttempts = 64;
  std::uint64_t attempts = 0;
  for (;;) {
    if (peer_failed(dst)) {
      // Confirmed-dead destination: a full ring on a severed link never
      // drains, so the untracked-control loop below would spin forever.
      // Drop the packet — the owning operation is failed by the death
      // propagation (on_peer_dead), not by this transmission path.
      if (tracked) tracker_->untrack(p2p::key_of(dst, pkt.hdr));
      return;
    }
    const int k = pool_.id_for_thread();
    cri::CommResourceInstance& inst = pool_.instance(k);
    bool injected = false;
    {
      LockGuard guard(inst.lock());
      injected = inst.endpoint(dst).try_send(std::move(pkt));
      if (injected) inst.note_injection(spc_);
    }
    if (injected) return;
    spc_.add(Counter::kSendBackpressure);
    if (tracked && ++attempts >= kTrackedAttempts) return;
    if (tracker_ != nullptr) flush_acks();  // keep our acks flowing meanwhile
    engine_.progress();
  }
}

void Rank::drain_control() {
  // lint: allow(relaxed-sync) emptiness hint only; the queue is read under control_lock_
  while (control_pending_.load(std::memory_order_relaxed)) {
    ControlMsg msg;
    {
      LockGuard guard(control_lock_);
      if (control_.empty()) return;
      msg = control_.front();
      control_.pop_front();
      control_pending_.store(!control_.empty(), std::memory_order_relaxed);
    }

    switch (msg.kind) {
      case ControlMsg::Kind::kSendAck: {
        Packet ack;
        ack.hdr.opcode = Opcode::kRndvAck;
        ack.hdr.src_rank = static_cast<std::uint16_t>(id_);
        ack.hdr.comm_id = msg.comm;
        ack.hdr.imm = msg.remote_cookie;  // sender-side cookie
        ack.set_payload(&msg.local_cookie, sizeof msg.local_cookie);
        inject_control(msg.peer, std::move(ack));
        break;
      }
      case ControlMsg::Kind::kSendData: {
        // Claim the send state by extracting it: a duplicated RndvAck (our
        // packet-ack for it got lost) enqueues a second kSendData, and two
        // drainers must not both stream fragments from a buffer the user
        // may free the moment the first completes the request.
        std::unique_ptr<RndvSendState> state;
        {
          LockGuard guard(rndv_lock_);
          const auto it = rndv_sends_.find(msg.local_cookie);
          if (it == rndv_sends_.end()) {
            FAIRMPI_CHECK_MSG(tracker_ != nullptr, "ack for unknown rendezvous send");
            spc_.add(Counter::kDupDiscards);
            break;
          }
          state = std::move(it->second);
          rndv_sends_.erase(it);
        }
        if (state->failed) {
          // Cancelled / deadline-expired tombstone: the request is already
          // settled and the owner may have reclaimed the buffer — discard
          // instead of streaming stale memory (rendezvous.hpp).
          spc_.add(Counter::kDupDiscards);
          break;
        }
        if (peer_failed(msg.peer)) {
          // Receiver died between its RndvAck and our drain: fail the send
          // instead of streaming the whole payload into a severed link.
          if (state->request->fail(common::ErrorCode::kPeerFailed)) {
            spc_.add(Counter::kFtPeerFailedOps);
          }
          break;
        }
        const std::size_t frag = uni_->config().rndv_frag_bytes;
        std::uint64_t offset = 0;
        std::uint32_t index = 0;
        // A zero-length transfer still needs one (empty) fragment so the
        // receiver's remaining-counter protocol fires... except remaining
        // starts at 0 then; handled below by completing directly.
        while (offset < state->total) {
          const std::uint64_t chunk =
              state->total - offset < frag ? state->total - offset : frag;
          Packet data;
          data.hdr.opcode = Opcode::kRndvData;
          data.hdr.src_rank = static_cast<std::uint16_t>(id_);
          data.hdr.comm_id = msg.comm;
          data.hdr.seq = index++;
          data.hdr.imm = msg.remote_cookie;  // receiver-side cookie
          // Reliable: sum the fragment in its copy (Packet::set_payload).
          data.set_payload(state->data + offset, static_cast<std::size_t>(chunk),
                           /*pool_cap=*/0, /*summed=*/tracker_ != nullptr);
          inject_control(msg.peer, std::move(data));
          offset += chunk;
        }
        if (state->request->complete()) {
          spc_.add(Counter::kMessagesSent);
          spc_.add(Counter::kBytesSent, state->total);
        }
        break;
      }
      case ControlMsg::Kind::kSendPacketAck:
      case ControlMsg::Kind::kSendPacketDefer:
        // Handled by flush_acks (notices ride their own queue); kept in
        // the enum so the message layout stays shared.
        break;
      case ControlMsg::Kind::kNone:
        FAIRMPI_CHECK_MSG(false, "empty control message");
    }
  }
}

}  // namespace fairmpi
