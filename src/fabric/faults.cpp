// Fault-injection decision engine (see include/fairmpi/fabric/faults.hpp).
#include "fairmpi/fabric/faults.hpp"

#include <cstring>
#include "fairmpi/common/error.hpp"

namespace fairmpi::fabric {

namespace {

/// Flip one random bit of the packet, never touching hdr.payload_size (see
/// the fault-model comment in faults.hpp). Corruptible bytes: the header
/// minus the 4-byte payload_size field, plus the payload. A payload flip
/// lands on the packet's own copy of a shared buffer (mutable_payload),
/// charged under `pool_cap`; false when the pool refuses that copy.
bool corrupt_packet(Xoshiro256& rng, Packet& pkt, std::uint64_t pool_cap) {
  constexpr std::size_t kHdrBytes = sizeof(WireHeader);
  const std::size_t kSizeOff = offsetof(WireHeader, payload_size);
  const std::size_t corruptible = (kHdrBytes - sizeof(std::uint32_t)) +
                                  pkt.hdr.payload_size;
  std::size_t byte = rng.bounded(corruptible);
  const int bit = static_cast<int>(rng.bounded(8));
  if (byte < kHdrBytes - sizeof(std::uint32_t)) {
    if (byte >= kSizeOff) byte += sizeof(std::uint32_t);  // skip payload_size
    unsigned char raw[kHdrBytes];
    std::memcpy(raw, &pkt.hdr, kHdrBytes);
    raw[byte] ^= static_cast<unsigned char>(1u << bit);
    std::memcpy(&pkt.hdr, raw, kHdrBytes);
    return true;
  }
  std::byte* p = pkt.mutable_payload(pool_cap);
  if (p == nullptr) return false;
  p[byte - (kHdrBytes - sizeof(std::uint32_t))] ^= static_cast<std::byte>(1u << bit);
  return true;
}

}  // namespace

FaultInjector::FaultInjector(int num_ranks, const FaultParams& params,
                             std::uint64_t pool_cap_bytes)
    : params_(params), pool_cap_bytes_(pool_cap_bytes),
      num_ranks_(static_cast<std::size_t>(num_ranks)), kill_(num_ranks_),
      injected_by_(num_ranks_) {
  FAIRMPI_CHECK(num_ranks >= 1);
  Xoshiro256 master(params.seed);
  // lint: allow(hotpath-alloc) one-time construction of the link table
  links_.reserve(num_ranks_ * num_ranks_);
  for (std::size_t i = 0; i < num_ranks_ * num_ranks_; ++i) {
    // lint: allow(hotpath-alloc) one-time construction of the link table
    auto state = std::make_unique<LinkState>();
    state->rng = master.fork();
    links_.push_back(std::move(state));
  }
  for (std::size_t r = 0; r < num_ranks_; ++r) {
    kill_[r].value.store(~std::uint64_t{0}, std::memory_order_relaxed);
  }
}

void FaultInjector::process(int src, int dst, Packet&& pkt, Batch& out) {
  out.n = 0;
  out.primary = -1;
  // Peer-death gate. The per-src injection counter is what makes
  // kill_rank_at deterministic: the rank dies at a packet *index*, not a
  // time, so a re-run with the same seed and injection order dies at the
  // same packet. The count is charged before the liveness check so packet
  // at_seq itself is the first one the wire eats.
  injected_by_[static_cast<std::size_t>(src)].value.fetch_add(
      1, std::memory_order_relaxed);
  if (rank_dead(src) || rank_dead(dst)) {
    stats_.kill_drops.fetch_add(1, std::memory_order_relaxed);
    Packet sink = std::move(pkt);  // permanent link-down: the wire ate it
    static_cast<void>(sink);
    return;
  }
  LinkState& ln = link(src, dst);
  LockGuard guard(ln.lock);
  Xoshiro256& rng = ln.rng;
  stats_.injected.fetch_add(1, std::memory_order_relaxed);

  // Age the holdback first: packets whose horizon expired ride along AFTER
  // the newer primary below, which is what makes a parked packet arrive
  // out of order. Collect them now, append later.
  std::array<int, kHoldback> due{};
  std::size_t n_due = 0;
  if (ln.n_held != 0) {
    for (std::size_t i = 0; i < kHoldback; ++i) {
      LinkState::Held& h = ln.held[i];
      if (h.occupied && --h.release_after <= 0) due[n_due++] = static_cast<int>(i);
    }
  }

  // The primary packet's fate. Draws are conditional on the configured
  // probabilities, so disabled faults consume no stream state.
  bool consumed = false;
  if (params_.drop > 0.0 && rng.uniform() < params_.drop) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    Packet sink = std::move(pkt);  // destroyed here: the wire ate it
    static_cast<void>(sink);
    consumed = true;
  }

  if (!consumed) {
    const bool want_reorder = params_.reorder > 0.0 && rng.uniform() < params_.reorder;
    const bool want_delay =
        !want_reorder && params_.delay > 0.0 && rng.uniform() < params_.delay;
    if ((want_reorder || want_delay) && ln.n_held < kHoldback) {
      for (std::size_t i = 0; i < kHoldback; ++i) {
        LinkState::Held& h = ln.held[i];
        if (h.occupied) continue;
        h.pkt = std::move(pkt);
        h.release_after = want_reorder ? 1 : 2 + static_cast<int>(rng.bounded(4));
        h.reordered = want_reorder;
        h.occupied = true;
        ++ln.n_held;
        break;
      }
      (want_reorder ? stats_.reordered : stats_.delayed)
          .fetch_add(1, std::memory_order_relaxed);
      consumed = true;
    }
  }

  if (!consumed && params_.corrupt > 0.0 && rng.uniform() < params_.corrupt) {
    if (corrupt_packet(rng, pkt, pool_cap_bytes_)) {
      stats_.corrupted.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The pool refused the private copy the flip needs. The receiver's
      // checksum would have dropped the packet anyway, so drop it here.
      stats_.dropped.fetch_add(1, std::memory_order_relaxed);
      Packet sink = std::move(pkt);
      static_cast<void>(sink);
      consumed = true;
    }
  }

  if (!consumed) {
    const bool duplicate = params_.dup > 0.0 && rng.uniform() < params_.dup;
    out.primary = static_cast<int>(out.n);
    out.pkts[out.n++] = std::move(pkt);
    if (duplicate) {
      clone_packet(out.pkts[static_cast<std::size_t>(out.primary)], out.pkts[out.n++]);
      stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
    }
  }

  for (std::size_t i = 0; i < n_due; ++i) {
    LinkState::Held& h = ln.held[static_cast<std::size_t>(due[i])];
    out.pkts[out.n++] = std::move(h.pkt);
    h.occupied = false;
    --ln.n_held;
    stats_.released.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t FaultInjector::held() const noexcept {
  std::size_t n = 0;
  for (const auto& ln : links_) {
    LockGuard guard(ln->lock);
    n += ln->n_held;
  }
  return n;
}

}  // namespace fairmpi::fabric
