// Ack/retransmit tracker (see include/fairmpi/p2p/reliability.hpp).
//
// Hot-path discipline: the only steady-state allocations are the in-flight
// maps' nodes, which exist exclusively when fault injection / reliability is
// switched on — the pristine-fabric hot path never reaches this file. The
// retransmit masters share the wire packets' pooled payload buffers
// (clone_packet), so tracking copies no payload.
#include "fairmpi/p2p/reliability.hpp"

#include <utility>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::p2p {

ReliabilityTracker::ReliabilityTracker(std::uint64_t rto_ns, std::uint64_t rto_max_ns,
                                       int max_retries, std::atomic<std::uint64_t>& due)
    : rto_ns_(rto_ns), rto_max_ns_(rto_max_ns), max_retries_(max_retries), due_(due) {
  // max_retries == 0 is the fail-fast mode: the first unacked rto expiry
  // fails the entry typed without ever retransmitting.
  FAIRMPI_CHECK(rto_ns >= 1 && rto_max_ns >= rto_ns && max_retries >= 0);
}

void ReliabilityTracker::track(int dst, const fabric::Packet& pkt, std::uint64_t now_ns) {
  Entry e;
  e.dst = dst;
  e.retries = 0;
  e.rto_ns = rto_ns_;
  e.deadline_ns = now_ns + rto_ns_;
  fabric::clone_packet(pkt, e.pkt);
  const PacketKey key = key_of(dst, pkt.hdr);

  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  const std::uint64_t deadline = e.deadline_ns;
  // lint: allow(hotpath-alloc) map node exists only under fault injection
  if (shard.inflight.insert_or_assign(key, std::move(e)).second) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  // Lowered under the shard lock, after the insert: a sweep that missed
  // the entry has raised the gate before this lowers it.
  lower_due(due_, deadline);
}

std::size_t ReliabilityTracker::ack_range(const PacketKey& first, std::uint32_t count) {
  Shard& shard = shard_of(first);
  std::size_t retired = 0;
  {
    LockGuard guard(shard.lock);
    PacketKey key = first;
    for (std::uint32_t i = 0; i < count; ++i, ++key.seq) {
      retired += shard.inflight.erase(key);
    }
  }
  if (retired != 0) in_flight_.fetch_sub(retired, std::memory_order_relaxed);
  return retired;
}

bool ReliabilityTracker::nack(const PacketKey& key, Failure* out) {
  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  const auto it = shard.inflight.find(key);
  if (it == shard.inflight.end()) return false;
  if (out != nullptr) {
    *out = Failure{key, it->second.retries, common::ErrorCode::kReceiverOverloaded};
  }
  shard.inflight.erase(it);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ReliabilityTracker::defer(const PacketKey& key, std::uint64_t now_ns) {
  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  const auto it = shard.inflight.find(key);
  if (it == shard.inflight.end()) return;
  Entry& e = it->second;
  if (e.retries > 0) --e.retries;
  e.rto_ns = rto_ns_;
  e.deadline_ns = now_ns + rto_ns_;
  lower_due(due_, e.deadline_ns);
}

std::uint64_t ReliabilityTracker::sweep(std::uint64_t now_ns, std::vector<Resend>& resends,
                                        std::vector<Failure>& failures) {
  std::uint64_t earliest = kNever;
  for (Shard& shard : shards_) {
    LockGuard guard(shard.lock);
    for (auto it = shard.inflight.begin(); it != shard.inflight.end();) {
      Entry& e = it->second;
      common::ErrorCode failed = common::ErrorCode::kOk;
      if (peer_failed(e.dst)) {
        // Tracked after the peer's death was confirmed (racing send):
        // deadline is irrelevant, the link is permanently down.
        failed = common::ErrorCode::kPeerFailed;
      } else if (e.deadline_ns > now_ns) {
        if (e.deadline_ns < earliest) earliest = e.deadline_ns;
        ++it;
        continue;
      } else if (e.retries >= max_retries_) {
        failed = common::ErrorCode::kRetryExhausted;
      }
      if (failed != common::ErrorCode::kOk) {
        // lint: allow(hotpath-alloc) failure reporting is the cold outcome
        failures.push_back(Failure{it->first, e.retries, failed});
        it = shard.inflight.erase(it);
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      // Claim only: push the deadline one (current) rto out so concurrent
      // sweeps don't double-clone it. Backoff and the retry charge happen
      // in confirm_retransmit, once the clone verifiably left the sender.
      e.deadline_ns = now_ns + e.rto_ns;
      if (e.deadline_ns < earliest) earliest = e.deadline_ns;
      // lint: allow(hotpath-alloc) resend batch exists only under injection
      Resend& r = resends.emplace_back();
      r.dst = e.dst;
      fabric::clone_packet(e.pkt, r.pkt);
      ++it;
    }
  }
  return earliest;
}

void ReliabilityTracker::fail_peer(int peer, std::vector<Failure>& failures) {
  const auto p = static_cast<std::size_t>(peer);
  failed_peers_[p / 64].fetch_or(std::uint64_t{1} << (p % 64), std::memory_order_release);
  for (Shard& shard : shards_) {
    LockGuard guard(shard.lock);
    for (auto it = shard.inflight.begin(); it != shard.inflight.end();) {
      if (it->second.dst != peer) {
        ++it;
        continue;
      }
      // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
      failures.push_back(Failure{it->first, it->second.retries,
                                 common::ErrorCode::kPeerFailed});
      it = shard.inflight.erase(it);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

bool ReliabilityTracker::peer_failed(int peer) const noexcept {
  const auto p = static_cast<std::size_t>(peer);
  return (failed_peers_[p / 64].load(std::memory_order_acquire) >> (p % 64) & 1) != 0;
}

void ReliabilityTracker::confirm_retransmit(const PacketKey& key,
                                            std::uint64_t now_ns) {
  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  const auto it = shard.inflight.find(key);
  if (it == shard.inflight.end()) return;  // acked while we were injecting
  Entry& e = it->second;
  ++e.retries;
  e.rto_ns = e.rto_ns * 2 < rto_max_ns_ ? e.rto_ns * 2 : rto_max_ns_;
  e.deadline_ns = now_ns + e.rto_ns;
  lower_due(due_, e.deadline_ns);
}

}  // namespace fairmpi::p2p
