// Ack/retransmit tracker (see include/fairmpi/p2p/reliability.hpp).
//
// Hot-path discipline: the only steady-state allocations are the in-flight
// map's nodes, which exist exclusively when fault injection / reliability is
// switched on — the pristine-fabric hot path never reaches this file. The
// retransmit master copies recycle payload buffers through the fabric's
// size-classed pool (clone_packet).
#include "fairmpi/p2p/reliability.hpp"

#include <algorithm>
#include <utility>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::p2p {

ReliabilityTracker::ReliabilityTracker(std::uint64_t rto_ns, std::uint64_t rto_max_ns,
                                       int max_retries, std::atomic<std::uint64_t>& due,
                                       std::uint64_t pool_cap_bytes)
    : rto_ns_(rto_ns), rto_max_ns_(rto_max_ns), max_retries_(max_retries),
      pool_cap_bytes_(pool_cap_bytes), due_(due) {
  // max_retries == 0 is the fail-fast mode: the first unacked rto expiry
  // fails the entry typed without ever retransmitting.
  FAIRMPI_CHECK(rto_ns >= 1 && rto_max_ns >= rto_ns && max_retries >= 0);
}

void ReliabilityTracker::track(int dst, fabric::Packet&& copy, std::uint64_t now_ns) {
  Entry e;
  e.dst = dst;
  e.retries = 0;
  e.rto_ns = rto_ns_;
  e.deadline_ns = now_ns + rto_ns_;
  const PacketKey key = key_of(dst, copy.hdr);
  e.pkt = std::move(copy);

  LockGuard guard(lock_);
  const std::uint64_t deadline = e.deadline_ns;
  // lint: allow(hotpath-alloc) map node exists only under fault injection
  if (inflight_.insert_or_assign(key, std::move(e)).second) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  // Lowered under lock_, after the insert: a sweep that missed the entry
  // has raised the gate before this lowers it.
  lower_due(due_, deadline);
}

bool ReliabilityTracker::ack(const PacketKey& key) {
  LockGuard guard(lock_);
  if (inflight_.erase(key) == 0) return false;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ReliabilityTracker::untrack(const PacketKey& key) {
  LockGuard guard(lock_);
  if (inflight_.erase(key) != 0) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool ReliabilityTracker::nack(const PacketKey& key, Failure* out) {
  LockGuard guard(lock_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return false;
  if (out != nullptr) {
    *out = Failure{key, it->second.retries, common::ErrorCode::kReceiverOverloaded};
  }
  inflight_.erase(it);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ReliabilityTracker::defer(const PacketKey& key, std::uint64_t now_ns) {
  LockGuard guard(lock_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  Entry& e = it->second;
  if (e.retries > 0) --e.retries;
  e.rto_ns = rto_ns_;
  e.deadline_ns = now_ns + rto_ns_;
  lower_due(due_, e.deadline_ns);
}

std::uint64_t ReliabilityTracker::sweep(std::uint64_t now_ns, std::vector<Resend>& resends,
                                        std::vector<Failure>& failures) {
  LockGuard guard(lock_);
  std::uint64_t earliest = kNever;
  // Lowest refused retransmit per stream (destination, communicator).
  std::vector<std::pair<PacketKey, const Entry*>> refused;
  const auto same_stream = [](const PacketKey& a, const PacketKey& b) {
    return a.peer == b.peer && a.comm == b.comm;
  };
  const auto before = [](const PacketKey& a, const PacketKey& b) {
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  };
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    Entry& e = it->second;
    if (static_cast<std::size_t>(e.dst) < failed_peers_.size() &&
        failed_peers_[static_cast<std::size_t>(e.dst)]) {
      // Tracked after the peer's death was confirmed (racing send):
      // deadline is irrelevant, the link is permanently down.
      // lint: allow(hotpath-alloc) failure reporting is the cold outcome
      failures.push_back(Failure{it->first, e.retries,
                                 common::ErrorCode::kPeerFailed});
      it = inflight_.erase(it);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (e.deadline_ns > now_ns) {
      if (e.deadline_ns < earliest) earliest = e.deadline_ns;
      ++it;
      continue;
    }
    if (e.retries >= max_retries_) {
      // lint: allow(hotpath-alloc) failure reporting is the cold outcome
      failures.push_back(Failure{it->first, e.retries,
                                 common::ErrorCode::kRetryExhausted});
      it = inflight_.erase(it);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    // Claim only: push the deadline one (current) rto out so concurrent
    // sweeps don't double-clone it. Backoff and the retry charge happen in
    // confirm_retransmit, once the clone verifiably left the sender; a
    // clone the pool refuses at its cap waits for the next rto, like a
    // retransmit that finds the ring full.
    e.deadline_ns = now_ns + e.rto_ns;
    if (e.deadline_ns < earliest) earliest = e.deadline_ns;
    fabric::Packet clone;
    if (fabric::clone_packet(e.pkt, clone, pool_cap_bytes_)) {
      // lint: allow(hotpath-alloc) resend batch exists only under injection
      resends.push_back(Resend{e.dst, std::move(clone)});
    } else {
      const auto low = std::find_if(refused.begin(), refused.end(),
                                    [&](const auto& r) { return same_stream(r.first, it->first); });
      if (low == refused.end()) {
        // lint: allow(hotpath-alloc) reached only with the pool at its cap
        refused.emplace_back(it->first, &e);
      } else if (before(it->first, low->first)) {
        *low = {it->first, &e};
      }
    }
    ++it;
  }
  // A refused retransmit waits for its next rto, except the lowest tracked
  // sequence number of its stream: that one may be the gap its receiver
  // parks later packets behind, and those parked payloads may be what
  // holds the pool at its cap, so refusing it too could wedge the stream.
  // It is cloned past the cap. Once it retires (delivered, or re-acked as a
  // duplicate) the next lowest takes its place, so the gap is always
  // reached, and only one entry per stream ever passes the cap.
  if (!refused.empty()) {
    for (const auto& kv : inflight_) {
      for (auto& r : refused) {
        if (r.second != nullptr && same_stream(kv.first, r.first) && before(kv.first, r.first)) {
          r.second = nullptr;  // not its stream's lowest
        }
      }
    }
    for (const auto& [key, e] : refused) {
      if (e == nullptr) continue;
      fabric::Packet clone;
      fabric::clone_packet(e->pkt, clone);
      // lint: allow(hotpath-alloc) resend batch exists only under injection
      resends.push_back(Resend{e->dst, std::move(clone)});
    }
  }
  return earliest;
}

void ReliabilityTracker::fail_peer(int peer, std::vector<Failure>& failures) {
  LockGuard guard(lock_);
  if (static_cast<std::size_t>(peer) >= failed_peers_.size()) {
    // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
    failed_peers_.resize(static_cast<std::size_t>(peer) + 1, false);
  }
  failed_peers_[static_cast<std::size_t>(peer)] = true;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.dst != peer) {
      ++it;
      continue;
    }
    // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
    failures.push_back(Failure{it->first, it->second.retries,
                               common::ErrorCode::kPeerFailed});
    it = inflight_.erase(it);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool ReliabilityTracker::peer_failed(int peer) const noexcept {
  LockGuard guard(lock_);
  return static_cast<std::size_t>(peer) < failed_peers_.size() &&
         failed_peers_[static_cast<std::size_t>(peer)];
}

void ReliabilityTracker::confirm_retransmit(const PacketKey& key,
                                            std::uint64_t now_ns) {
  LockGuard guard(lock_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;  // acked while we were injecting
  Entry& e = it->second;
  ++e.retries;
  e.rto_ns = e.rto_ns * 2 < rto_max_ns_ ? e.rto_ns * 2 : rto_max_ns_;
  e.deadline_ns = now_ns + e.rto_ns;
  lower_due(due_, e.deadline_ns);
}

}  // namespace fairmpi::p2p
