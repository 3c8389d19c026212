#include "fairmpi/match/match_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::match {

using spc::Counter;

MatchEngine::MatchEngine(int num_ranks, bool allow_overtaking, spc::CounterSet& counters,
                         bool reliable)
    : allow_overtaking_(allow_overtaking), reliable_(reliable), spc_(counters),
      peers_(static_cast<std::size_t>(num_ranks)) {
  FAIRMPI_CHECK(num_ranks >= 1);
  // Force the one-time TSC calibration now, off the matching path: the
  // first to_ns() call busy-waits ~2 ms, which must not happen under lock_.
  (void)CycleClock::to_ns(1);
}

MatchEngine::~MatchEngine() {
  // Return parked unexpected nodes to the pool so their packets (which may
  // own pooled payload buffers) are destroyed; the slab pool itself frees
  // raw memory wholesale and does not run destructors.
  for (auto& ps : peers_) {
    for (UnexpectedList& bin : ps.unexpected) {
      while (Unexpected* n = bin.pop_front()) {
        unexpected_pool_.release(n);
      }
    }
  }
}

void MatchEngine::deliver(spc::CounterSet::Cursor& ctr, p2p::Request* req,
                          const fabric::Packet& pkt) {
  if (pkt.hdr.opcode == fabric::Opcode::kRndvRts) {
    // Rendezvous: the envelope pairs with the receive here (preserving the
    // matching semantics), but the data transfer and the completion are
    // the rendezvous protocol's job.
    FAIRMPI_CHECK_MSG(rndv_hook_ != nullptr, "RndvRts received with no hook installed");
    rndv_hook_->on_rts_matched(req, pkt);
    return;
  }
  p2p::Status status;
  status.source = static_cast<int>(pkt.hdr.src_rank);
  status.tag = pkt.hdr.tag;
  status.size = pkt.hdr.payload_size;
  status.truncated = pkt.hdr.payload_size > req->capacity();
  const std::size_t n =
      status.truncated ? req->capacity() : static_cast<std::size_t>(pkt.hdr.payload_size);
  if (n != 0) std::memcpy(req->buffer(), pkt.payload(), n);
  // Count only when this delivery won the settle race: a request already
  // failed by ft propagation (racing arrival vs. fail_source) must not
  // inflate the delivery counters.
  if (req->complete(status)) {
    ctr.add(Counter::kMessagesReceived);
    ctr.add(Counter::kBytesReceived, pkt.hdr.payload_size);
  }
}

void MatchEngine::push_unexpected(PeerState& ps, Unexpected* node) {
  const std::uint32_t b = tag_bin(node->pkt.hdr.tag);
  ps.unexpected[b].push_back(node);
  ps.unexpected_bins |= std::uint32_t{1} << b;
  ++ps.unexpected_n;
  ++unexpected_total_;
  unexpected_mirror_.store(unexpected_total_, std::memory_order_relaxed);
}

void MatchEngine::erase_unexpected(PeerState& ps, Unexpected* node) {
  const std::uint32_t b = tag_bin(node->pkt.hdr.tag);
  ps.unexpected[b].erase(node);
  if (ps.unexpected[b].empty()) ps.unexpected_bins &= ~(std::uint32_t{1} << b);
  unexpected_pool_.release(node);
  --ps.unexpected_n;
  --unexpected_total_;
  unexpected_mirror_.store(unexpected_total_, std::memory_order_relaxed);
}

MatchEngine::Unexpected* MatchEngine::find_unexpected(int src, int tag, PeerState** owner,
                                                      std::size_t& scanned) {
  Unexpected* best = nullptr;
  const auto consider = [&](PeerState& ps, Unexpected* u) {
    if (best == nullptr || u->arrival < best->arrival) {
      best = u;
      *owner = &ps;
    }
  };
  const auto scan_peer = [&](PeerState& ps) {
    if (tag == p2p::kAnyTag) {
      // Each bin is in arrival order, so the peer's earliest message is the
      // earliest head among its occupied bins.
      for (std::uint32_t bins = ps.unexpected_bins; bins != 0; bins &= bins - 1) {
        ++scanned;
        consider(ps, ps.unexpected[static_cast<std::size_t>(std::countr_zero(bins))].front());
      }
      return;
    }
    // Within one bin, the earliest same-tag message is the first one.
    for (Unexpected* u = ps.unexpected[tag_bin(tag)].front(); u != nullptr;
         u = UnexpectedList::next(u)) {
      ++scanned;
      if (u->pkt.hdr.tag == tag) {
        consider(ps, u);
        return;
      }
    }
  };
  if (src == p2p::kAnySource) {
    for (auto& ps : peers_) scan_peer(ps);
  } else {
    scan_peer(peer(src));
  }
  return best;
}

std::size_t MatchEngine::match_one(spc::CounterSet::Cursor& ctr, fabric::Packet&& pkt,
                                   bool direct, Admission* admission) {
  const int src = static_cast<int>(pkt.hdr.src_rank);
  const int tag = pkt.hdr.tag;
  PeerState& ps = peer(src);

  // Queue search: the earliest posted receive (by post stamp) whose filters
  // accept this message. Every such receive sits on one of three lists, each
  // in post order: the tag's bin of this peer, this peer's ANY_TAG list, and
  // the ANY_SOURCE list. So the MPI match is the lowest stamp among the
  // three lists' first accepting entries. A bin may hold colliding tags, so
  // it is walked to its first same-tag entry; every ANY_TAG entry accepts.
  std::size_t scanned = 0;
  p2p::Request* winner = nullptr;
  PostedList* winner_list = nullptr;
  const auto consider = [&](PostedList& list) {
    for (p2p::Request* r = list.front(); r != nullptr; r = PostedList::next(r)) {
      ++scanned;
      if (r->tag_filter() == p2p::kAnyTag || r->tag_filter() == tag) {
        if (winner == nullptr || r->post_stamp < winner->post_stamp) {
          winner = r;
          winner_list = &list;
        }
        return;
      }
    }
  };
  consider(ps.posted[tag_bin(tag)]);
  consider(ps.posted_any_tag);
  consider(posted_any_);
  ctr.add(Counter::kPostedQueueDepth, scanned);

  if (winner != nullptr) {
    winner_list->erase(winner);
    deliver(ctr, winner, pkt);
    return 1;
  }

  // No posted receive: the message goes unexpected — the resource bounded
  // admission caps (DESIGN.md §5h). At cap incoming() paused every kQueue
  // packet, so only a kShed head reaches here; it is shed. A reorder-drain
  // packet (direct=false) was acked when it parked, so shedding it would be
  // silent loss: it is admitted, and incoming()'s park limit bounds how
  // many follow the head. The uncapped configuration pays one null-pointer
  // branch here.
  if (gov_ != nullptr && direct) {
    const overload::Limits& lim = gov_->limits();
    if (lim.unexpected_cap != 0 && lim.unexpected_policy == overload::Policy::kShed &&
        ps.unexpected_n >= lim.unexpected_cap) {
      // Shed at admission. The sequence number stays consumed (the caller
      // already advanced expected_seq), so the retransmit hits the
      // duplicate path — the shed ring there re-NACKs it. The rank answers
      // this packet with kNack instead of an ack, failing the sender's
      // tracked op typed kReceiverOverloaded.
      ps.shed_seqs[ps.shed_n % kShedMemory] = pkt.hdr.seq;
      ++ps.shed_n;
      ctr.add(Counter::kOverloadShedMessages);
      if (tracer_ != nullptr) {
        tracer_->record(trace::Event::kOverloadShed,
                        static_cast<std::uint32_t>(src), pkt.hdr.seq);
      }
      if (admission != nullptr) *admission = Admission::kShed;
      fabric::Packet drop = std::move(pkt);
      static_cast<void>(drop);
      return 0;
    }
  }

  ctr.add(Counter::kUnexpectedMessages);
  Unexpected* node = unexpected_pool_.acquire();
  node->arrival = arrival_stamp_++;
  node->pkt = std::move(pkt);
  push_unexpected(ps, node);
  return 0;
}

void MatchEngine::ReorderRing::grow(std::uint32_t new_cap) {
  // lint: allow(hotpath-alloc) growth only at a stream's new reorder high-water mark
  auto grown = std::make_unique<fabric::Packet[]>(new_cap);
  for (std::uint32_t i = 0; i < cap; ++i) {
    if (slot[i].hdr.opcode == fabric::Opcode::kInvalid) continue;
    grown[slot[i].hdr.seq & (new_cap - 1)] = std::move(slot[i]);
  }
  cap = new_cap;
  slot = std::move(grown);
}

void MatchEngine::park_out_of_sequence(spc::CounterSet::Cursor& ctr, PeerState& ps,
                                       fabric::Packet&& pkt) {
  const std::uint32_t seq = pkt.hdr.seq;
  // Unsigned distance from the in-order frontier; callers validated that
  // the packet is from the future, so delta >= 1.
  const std::uint32_t delta = seq - ps.expected_seq;
  if (delta < kReorderMax) {
    if (delta >= ps.reorder.cap) {
      std::uint32_t cap = std::max(ps.reorder.cap, kReorderWindow);
      while (cap <= delta) cap *= 2;
      ps.reorder.grow(cap);
    }
    ps.reorder.put(seq, std::move(pkt));
  } else {
    // kReorderMax or more ahead: only a stream with thousands of packets
    // in flight behind one hole gets here.
    // lint: allow(hotpath-alloc) far-distance spill, beyond the largest ring
    ps.spill.emplace(seq, std::move(pkt));
  }
  ++reorder_total_;
  ctr.update_max(Counter::kOosBufferPeak, reorder_total_);
}

std::size_t MatchEngine::incoming(fabric::Packet* pkts, std::size_t n, Admission* verdicts) {
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  std::uint64_t cycles = 0;
  std::size_t completions = 0;
  {
    ScopedCycles timer(cycles);
    for (std::size_t i = 0; i < n; ++i) {
      completions +=
          match_arrival(ctr, std::move(pkts[i]), verdicts != nullptr ? &verdicts[i] : nullptr);
    }
  }
  ctr.add(Counter::kMatchTimeNs, CycleClock::to_ns(cycles));
  return completions;
}

std::size_t MatchEngine::match_arrival(spc::CounterSet::Cursor& ctr, fabric::Packet&& pkt,
                                       Admission* admission) {
  const int src = static_cast<int>(pkt.hdr.src_rank);
  FAIRMPI_CHECK_MSG(src < static_cast<int>(peers_.size()), "packet from unknown rank");
  if (admission != nullptr) *admission = Admission::kAdmitted;
  if (revoked_) {
    // Revoked communicator: nothing will ever be posted again, so parking
    // this message as unexpected would just pin pooled payload memory.
    // Still acked (kAdmitted): the drop is deliberate, not overload.
    fabric::Packet sink = std::move(pkt);
    static_cast<void>(sink);
    return 0;
  }
  PeerState& ps = peer(src);
  // §5h admission: hold a packet back *before* the sequence stream consumes
  // it, so the sender re-presents it later (a cap implies `reliable`, so
  // its retransmit clock always runs). The policies differ only at the
  // queue's cap: kQueue pauses every packet unanswered, so the backed-off
  // retransmit clock waits out the slow consumer and a receiver waiting on
  // the head can always get it; kShed admits the head to match_one, which
  // NACKs it unless a posted receive takes it. Below that, one park limit
  // for both policies: a packet parks only while its distance ahead of the
  // in-order frontier plus the unexpected count stays below the cap, else
  // it is deferred and answered kDefer, so its sender re-presents it on the
  // base rto, uncharged. The head admits parked packets unconditionally
  // when it drains them (they were acked when they parked), but each
  // admitted head or drained packet moves the frontier and the queue by
  // one, so unexpected + farthest parked distance never grows while
  // anything is parked: fewer than cap packets park and the unexpected
  // queue never exceeds cap.
  if (admission != nullptr && gov_ != nullptr && gov_->limits().unexpected_cap != 0) {
    const overload::Limits& lim = gov_->limits();
    const std::size_t cap = lim.unexpected_cap;
    if (ps.unexpected_n >= cap && lim.unexpected_policy == overload::Policy::kQueue) {
      if (!ps.paused) {
        ps.paused = true;
        gov_->pause_peer();
        ctr.add(Counter::kOverloadPausedPeers);
        if (tracer_ != nullptr) {
          tracer_->record(trace::Event::kOverloadPause,
                          static_cast<std::uint32_t>(src), 1);
        }
      }
      *admission = Admission::kPaused;
      return 0;
    }
    const std::int32_t ahead = static_cast<std::int32_t>(pkt.hdr.seq - ps.expected_seq);
    if (!allow_overtaking_ && ahead > 0 &&
        static_cast<std::size_t>(ahead) + ps.unexpected_n >= cap) {
      *admission = Admission::kDeferred;
      return 0;
    }
  }
  std::size_t completions = 0;
  ctr.add(Counter::kMatchAttempts);
  if (allow_overtaking_) {
    // Overtaking: every message is immediately matchable (§IV-D). On a
    // lossy fabric the seq stream is the only duplicate detector left, so
    // reliable mode filters repeats through the per-peer SeenTracker.
    bool fresh = true;
    if (reliable_) {
      if (!ps.seen) {
        // lint: allow(hotpath-alloc) lazy one-time tracker, lossy mode only
        ps.seen = std::make_unique<SeenTracker>();
      }
      fresh = ps.seen->mark(pkt.hdr.seq);
    }
    if (fresh) {
      completions = match_one(ctr, std::move(pkt), /*direct=*/true, admission);
    } else {
      // The SeenTracker marked the seq when the original arrived — which
      // includes originals that were then shed. Those must be re-NACKed,
      // not re-acked (an ack would retire the sender's tracker entry and
      // the shed would never surface typed).
      if (admission != nullptr && ps.was_shed(pkt.hdr.seq)) {
        *admission = Admission::kShedDuplicate;
      } else if (admission != nullptr) {
        *admission = Admission::kDuplicate;
      }
      ctr.add(Counter::kDupDiscards);
    }
  } else {
    const std::uint32_t seq = pkt.hdr.seq;
    if (seq != ps.expected_seq) {
      // Sequence numbers never repeat per (comm, src->dst) stream and the
      // expected counter only advances past processed messages, so an
      // unexpected seq must be from the future — unless the fabric is
      // lossy: a retransmit whose original got through (the ack was the
      // loss) or a wire duplicate re-presents an already-seen seq, which
      // reliable mode discards to keep delivery exactly-once.
      const bool future = static_cast<std::int32_t>(seq - ps.expected_seq) > 0;
      if (reliable_) {
        const bool already_parked = future && ps.holds(seq);
        if (!future || already_parked) {
          // A shed consumes its seq (expected_seq advanced past it), so a
          // retransmit of a shed packet lands here as !future. Re-NACK it
          // from the shed ring; any other repeat re-acks as a duplicate.
          if (admission != nullptr && !future && ps.was_shed(seq)) {
            *admission = Admission::kShedDuplicate;
          } else if (admission != nullptr) {
            *admission = Admission::kDuplicate;
          }
          ctr.add(Counter::kDupDiscards);
        } else {
          ctr.add(Counter::kOutOfSequence);
          park_out_of_sequence(ctr, ps, std::move(pkt));
        }
      } else {
        FAIRMPI_CHECK_MSG(future, "duplicate or stale sequence number");
        ctr.add(Counter::kOutOfSequence);
        park_out_of_sequence(ctr, ps, std::move(pkt));
      }
    } else {
      ++ps.expected_seq;
      completions += match_one(ctr, std::move(pkt), /*direct=*/true, admission);
      // Drain parked messages that are now in order: ring first (the
      // common case), then the spill map.
      // Drained packets were acked when they parked, so they pass
      // direct=false (never shed) and report no admission verdict.
      for (;;) {
        const std::uint32_t e = ps.expected_seq;
        if (ps.reorder.parked(e)) {
          fabric::Packet next = ps.reorder.take(e);
          --reorder_total_;
          ++ps.expected_seq;
          completions += match_one(ctr, std::move(next), /*direct=*/false, nullptr);
          continue;
        }
        if (!ps.spill.empty()) {
          auto it = ps.spill.find(e);
          if (it != ps.spill.end()) {
            fabric::Packet next = std::move(it->second);
            ps.spill.erase(it);
            --reorder_total_;
            ++ps.expected_seq;
            completions += match_one(ctr, std::move(next), /*direct=*/false, nullptr);
            continue;
          }
        }
        break;
      }
    }
  }
  return completions;
}

bool MatchEngine::post(p2p::Request* req) {
  FAIRMPI_CHECK(req->kind() == p2p::Request::Kind::kRecv);
  const int src = req->source_filter();
  const int tag = req->tag_filter();
  FAIRMPI_CHECK_MSG(src == p2p::kAnySource ||
                        (src >= 0 && src < static_cast<int>(peers_.size())),
                    "invalid source filter");

  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  if (revoked_) {
    // Checked under the match lock — the authoritative revocation gate. A
    // poster that read CommState::revoked() as false just before revoke()
    // landed must still fail here, never enqueue (it would hang forever:
    // fail_all_posted already swept the queues).
    if (req->fail(common::ErrorCode::kCommRevoked)) {
      ctr.add(Counter::kFtRevokedOps);
    }
    return true;
  }
  std::uint64_t cycles = 0;
  bool matched = false;
  {
    ScopedCycles timer(cycles);
    ctr.add(Counter::kMatchAttempts);

    // Search the unexpected queue(s) for the earliest-arrived match.
    PeerState* best_ps = nullptr;
    std::size_t scanned = 0;
    Unexpected* best = find_unexpected(src, tag, &best_ps, scanned);
    ctr.add(Counter::kUnexpectedQueueDepth, scanned);

    if (best != nullptr) {
      const int consumed_src = static_cast<int>(best->pkt.hdr.src_rank);
      deliver(ctr, req, best->pkt);
      erase_unexpected(*best_ps, best);
      // kQueue re-admission: unlatch once the peer drained to the low
      // watermark (hysteresis — not at cap-1, or the latch would flap).
      if (best_ps->paused && gov_ != nullptr) {
        const overload::Limits& lim = gov_->limits();
        if (best_ps->unexpected_n * 100 <=
            static_cast<std::size_t>(lim.low_pct) * lim.unexpected_cap) {
          best_ps->paused = false;
          gov_->resume_peer();
          if (tracer_ != nullptr) {
            tracer_->record(trace::Event::kOverloadPause,
                            static_cast<std::uint32_t>(consumed_src), 0);
          }
        }
      }
      matched = true;
    } else if (src != p2p::kAnySource && peer(src).dead) {
      // ft fail-fast: nothing matchable remains from a confirmed-dead
      // source and nothing more can arrive — enqueueing would hang the
      // receiver forever. ANY_SOURCE receives still enqueue: a live peer
      // may satisfy them.
      if (req->fail(common::ErrorCode::kPeerFailed)) {
        ctr.add(Counter::kFtPeerFailedOps);
      }
      matched = true;  // completed immediately, albeit with an error
    } else {
      req->post_stamp = post_stamp_++;
      // Route cancels through this engine while the request is linked
      // (cancel-vs-match settles under lock_, exactly once). Installed
      // before the request becomes matchable; the caller still holds it.
      req->set_cancel_scope(this);
      if (src == p2p::kAnySource) {
        posted_any_.push_back(req);
      } else {
        peer(src).posted_list(tag).push_back(req);
      }
      // Deadline gate: keep next_deadline_ a lower bound for every posted
      // deadline so expire_deadlines costs one relaxed load when idle.
      if (req->deadline() != 0) lower_due(next_deadline_, req->deadline());
    }
  }
  ctr.add(Counter::kMatchTimeNs, CycleClock::to_ns(cycles));
  return matched;
}

bool MatchEngine::probe(int src, int tag, p2p::Status* status) {
  FAIRMPI_CHECK_MSG(src == p2p::kAnySource ||
                        (src >= 0 && src < static_cast<int>(peers_.size())),
                    "invalid source filter");
  LockGuard guard(lock_);
  PeerState* owner = nullptr;
  std::size_t scanned = 0;
  const Unexpected* best = find_unexpected(src, tag, &owner, scanned);
  if (best == nullptr) return false;

  if (status != nullptr) {
    status->source = static_cast<int>(best->pkt.hdr.src_rank);
    status->tag = best->pkt.hdr.tag;
    status->size = best->pkt.hdr.opcode == fabric::Opcode::kRndvRts
                       ? p2p::read_rts_body(best->pkt).total
                       : best->pkt.hdr.payload_size;
    status->truncated = false;
  }
  return true;
}

std::size_t MatchEngine::fail_source(int src) {
  FAIRMPI_CHECK_MSG(src >= 0 && src < static_cast<int>(peers_.size()),
                    "invalid source rank");
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  PeerState& ps = peer(src);
  ps.dead = true;

  // Sever the reorder stream: parked out-of-sequence packets can never
  // drain (the gaps below them died with the sender), so they would pin
  // reorder_total_ and leak pooled payloads until teardown.
  // Freeing the ring destroys every parked packet with it.
  for (std::uint32_t i = 0; i < ps.reorder.cap; ++i) {
    if (ps.reorder.slot[i].hdr.opcode != fabric::Opcode::kInvalid) --reorder_total_;
  }
  ps.reorder = ReorderRing{};
  reorder_total_ -= ps.spill.size();
  ps.spill.clear();

  // Fail every source-specific posted receive; count on settle win only.
  std::size_t failed = 0;
  ps.for_each_posted([&](PostedList& list) {
    while (p2p::Request* r = list.pop_front()) {
      if (r->fail(common::ErrorCode::kPeerFailed)) {
        ctr.add(Counter::kFtPeerFailedOps);
        ++failed;
      }
    }
  });
  return failed;
}

std::size_t MatchEngine::fail_all_posted() {
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  revoked_ = true;
  std::size_t failed = 0;
  const auto drain = [&](PostedList& list) {
    while (p2p::Request* r = list.pop_front()) {
      if (r->fail(common::ErrorCode::kCommRevoked)) {
        ctr.add(Counter::kFtRevokedOps);
        ++failed;
      }
    }
  };
  for (auto& ps : peers_) ps.for_each_posted(drain);
  drain(posted_any_);
  return failed;
}

std::uint64_t MatchEngine::expire_deadlines(std::uint64_t now_ns) {
  // One relaxed load answers the common case: nothing posted has a
  // deadline, or the earliest one is still in the future.
  const std::uint64_t gate = next_deadline_.load(std::memory_order_relaxed);
  if (gate > now_ns) return gate;

  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  std::uint64_t next = kNever;
  const auto sweep = [&](PostedList& list) {
    p2p::Request* r = list.front();
    while (r != nullptr) {
      p2p::Request* nxt = PostedList::next(r);
      const std::uint64_t dl = r->deadline();
      if (dl != 0 && dl <= now_ns) {
        list.erase(r);
        if (r->fail(common::ErrorCode::kDeadlineExceeded)) {
          ctr.add(Counter::kDeadlineExceededOps);
          if (tracer_ != nullptr) {
            tracer_->record(trace::Event::kDeadline,
                            static_cast<std::uint32_t>(r->source_filter() + 1),
                            static_cast<std::uint32_t>(r->tag_filter()));
          }
        }
      } else if (dl != 0 && dl < next) {
        next = dl;
      }
      r = nxt;
    }
  };
  for (auto& ps : peers_) ps.for_each_posted(sweep);
  sweep(posted_any_);
  next_deadline_.store(next, std::memory_order_relaxed);
  return next;
}

bool MatchEngine::cancel_request(p2p::Request* req) {
  const int src = req->source_filter();
  FAIRMPI_CHECK_MSG(src == p2p::kAnySource ||
                        (src >= 0 && src < static_cast<int>(peers_.size())),
                    "cancel of a request this engine never posted");
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  // Settle only while the request is verifiably still linked: a matcher
  // that consumed it (under this same lock) already owns the completion,
  // and a cancel must never turn a delivered message into a lost one.
  PostedList& list =
      src == p2p::kAnySource ? posted_any_ : peer(src).posted_list(req->tag_filter());
  for (p2p::Request* r = list.front(); r != nullptr; r = PostedList::next(r)) {
    if (r != req) continue;
    list.erase(req);
    if (req->fail(common::ErrorCode::kCancelled)) {
      ctr.add(Counter::kCancelledOps);
      if (tracer_ != nullptr) {
        tracer_->record(trace::Event::kCancel,
                        static_cast<std::uint32_t>(src + 1),
                        static_cast<std::uint32_t>(req->tag_filter()));
      }
      return true;
    }
    return false;
  }
  return false;
}

std::size_t MatchEngine::unexpected_count() const noexcept {
  LockGuard guard(lock_);
  return unexpected_total_;
}

std::size_t MatchEngine::reorder_buffered() const noexcept {
  LockGuard guard(lock_);
  return reorder_total_;
}

std::size_t MatchEngine::posted_count() const noexcept {
  LockGuard guard(lock_);
  std::size_t n = posted_any_.size();
  for (const auto& ps : peers_) {
    n += ps.posted_any_tag.size();
    for (const PostedList& list : ps.posted) n += list.size();
  }
  return n;
}

}  // namespace fairmpi::match
