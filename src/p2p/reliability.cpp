// Ack/retransmit tracker (see include/fairmpi/p2p/reliability.hpp).
//
// Hot-path discipline: tracking allocates nothing in steady state. The
// entries live inline in each shard's table, whose doubling growth is the
// one allocation here, and the retransmit masters share the wire packets'
// pooled payload buffers (clone_packet), so tracking copies no payload.
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

// --- the shard table ---

ReliabilityTracker::Entry* ReliabilityTracker::Table::find(const PacketKey& key) noexcept {
  if (size_ == 0) return nullptr;
  for (std::size_t i = home(key);; i = (i + 1) & (slots_n_ - 1)) {
    Slot& s = slots_[i];
    if (s.key == key) return &s.e;
    if (s.key.opcode == 0) return nullptr;
  }
}

std::pair<ReliabilityTracker::Entry*, bool> ReliabilityTracker::Table::claim(
    const PacketKey& key) {
  if (2 * (size_ + 1) > slots_n_) grow();
  std::size_t i = home(key);
  for (; slots_[i].key.opcode != 0; i = (i + 1) & (slots_n_ - 1)) {
    if (slots_[i].key == key) return {&slots_[i].e, false};
  }
  slots_[i].key = key;
  ++size_;
  return {&slots_[i].e, true};
}

bool ReliabilityTracker::Table::erase(const PacketKey& key) noexcept {
  if (size_ == 0) return false;
  const std::size_t mask = slots_n_ - 1;
  std::size_t hole = home(key);
  while (!(slots_[hole].key == key)) {
    if (slots_[hole].key.opcode == 0) return false;
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull each later entry of the cluster into the hole
  // unless that would put it ahead of its home slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j].key.opcode != 0; j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole].key = slots_[j].key;
      slots_[hole].e = std::move(slots_[j].e);
      hole = j;
    }
  }
  slots_[hole].key = PacketKey{};
  slots_[hole].e.pkt.heap.reset();
  --size_;
  return true;
}

void ReliabilityTracker::Table::grow() {
  constexpr std::size_t kMinSlots = 16;
  const std::size_t n = slots_n_ == 0 ? kMinSlots : 2 * slots_n_;
  // lint: allow(hotpath-alloc) doubling growth: a shard past its peak never allocates
  std::unique_ptr<Slot[]> old = std::exchange(slots_, std::make_unique<Slot[]>(n));
  const std::size_t old_n = std::exchange(slots_n_, n);
  for (std::size_t k = 0; k < old_n; ++k) {
    if (old[k].key.opcode == 0) continue;
    std::size_t i = home(old[k].key);
    while (slots_[i].key.opcode != 0) i = (i + 1) & (n - 1);
    slots_[i].key = old[k].key;
    slots_[i].e = std::move(old[k].e);
  }
}

// --- the tracker ---

void ReliabilityTracker::track(int dst, const fabric::Packet& pkt, std::uint64_t now_ns) {
  const PacketKey key = key_of(dst, pkt.hdr);
  const std::uint64_t deadline = now_ns + rto_ns_;
  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  // Filled in place: a re-track of a live key starts over.
  const auto [e, fresh] = shard.inflight.claim(key);
  e->retries = 0;
  e->rto_ns = rto_ns_;
  e->deadline_ns = deadline;
  fabric::clone_packet(pkt, e->pkt);
  if (fresh) in_flight_.fetch_add(1, std::memory_order_relaxed);
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
      retired += shard.inflight.erase(key) ? 1 : 0;
    }
  }
  if (retired != 0) in_flight_.fetch_sub(retired, std::memory_order_relaxed);
  return retired;
}

bool ReliabilityTracker::nack(const PacketKey& key, Failure* out) {
  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  const Entry* e = shard.inflight.find(key);
  if (e == nullptr) return false;
  if (out != nullptr) {
    *out = Failure{key, e->retries, common::ErrorCode::kReceiverOverloaded};
  }
  shard.inflight.erase(key);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ReliabilityTracker::defer(const PacketKey& key, std::uint64_t now_ns) {
  Shard& shard = shard_of(key);
  LockGuard guard(shard.lock);
  Entry* e = shard.inflight.find(key);
  if (e == nullptr) return;
  if (e->retries > 0) --e->retries;
  e->rto_ns = rto_ns_;
  e->deadline_ns = now_ns + rto_ns_;
  lower_due(due_, e->deadline_ns);
}

void ReliabilityTracker::erase_failures(Shard& shard, const std::vector<Failure>& failures,
                                        std::size_t first) {
  for (std::size_t i = first; i < failures.size(); ++i) {
    shard.inflight.erase(failures[i].key);
  }
  const std::size_t n = failures.size() - first;
  if (n != 0) in_flight_.fetch_sub(n, std::memory_order_relaxed);
}

std::uint64_t ReliabilityTracker::sweep(std::uint64_t now_ns, std::vector<Resend>& resends,
                                        std::vector<Failure>& failures) {
  std::uint64_t earliest = kNever;
  for (Shard& shard : shards_) {
    LockGuard guard(shard.lock);
    const std::size_t first = failures.size();
    shard.inflight.for_each([&](const PacketKey& key, Entry& e) {
      common::ErrorCode failed = common::ErrorCode::kOk;
      if (peer_failed(key.peer)) {
        // Tracked after the peer's death was confirmed (racing send):
        // deadline is irrelevant, the link is permanently down.
        failed = common::ErrorCode::kPeerFailed;
      } else if (e.deadline_ns > now_ns) {
        if (e.deadline_ns < earliest) earliest = e.deadline_ns;
        return;
      } else if (e.retries >= max_retries_) {
        failed = common::ErrorCode::kRetryExhausted;
      }
      if (failed != common::ErrorCode::kOk) {
        failures.push_back(Failure{key, e.retries, failed});
        return;
      }
      // Claim only: push the deadline one (current) rto out so concurrent
      // sweeps don't double-clone it. Backoff and the retry charge happen
      // in confirm_retransmit, once the clone verifiably left the sender.
      e.deadline_ns = now_ns + e.rto_ns;
      if (e.deadline_ns < earliest) earliest = e.deadline_ns;
      Resend& r = resends.emplace_back();
      r.dst = key.peer;
      fabric::clone_packet(e.pkt, r.pkt);
    });
    erase_failures(shard, failures, first);
  }
  return earliest;
}

void ReliabilityTracker::fail_peer(int peer, std::vector<Failure>& failures) {
  const auto p = static_cast<std::size_t>(peer);
  failed_peers_[p / 64].fetch_or(std::uint64_t{1} << (p % 64), std::memory_order_release);
  for (Shard& shard : shards_) {
    LockGuard guard(shard.lock);
    const std::size_t first = failures.size();
    shard.inflight.for_each([&](const PacketKey& key, const Entry& e) {
      if (key.peer == peer) {
        failures.push_back(Failure{key, e.retries, common::ErrorCode::kPeerFailed});
      }
    });
    erase_failures(shard, failures, first);
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
  Entry* e = shard.inflight.find(key);
  if (e == nullptr) return;  // acked while we were injecting
  ++e->retries;
  e->rto_ns = e->rto_ns * 2 < rto_max_ns_ ? e->rto_ns * 2 : rto_max_ns_;
  e->deadline_ns = now_ns + e->rto_ns;
  lower_due(due_, e->deadline_ns);
}

}  // namespace fairmpi::p2p
