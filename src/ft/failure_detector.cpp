// Failure-detector sweep (see include/fairmpi/ft/failure_detector.hpp).
#include "fairmpi/ft/failure_detector.hpp"

#include "fairmpi/common/error.hpp"

namespace fairmpi::ft {

using spc::Counter;

FailureDetector::FailureDetector(int num_ranks, int self, const FtParams& params,
                                 spc::CounterSet& counters, trace::Tracer& tracer)
    : num_ranks_(num_ranks), self_(self), params_(params), spc_(counters),
      tracer_(tracer), cells_(static_cast<std::size_t>(num_ranks)),
      cold_(static_cast<std::size_t>(num_ranks)) {
  FAIRMPI_CHECK(params.strikes >= 1);
  FAIRMPI_CHECK(params.heartbeat_ns >= 1 && params.suspect_ns >= params.heartbeat_ns);
}

void FailureDetector::poll(std::uint64_t now_ns, std::vector<int>& probes,
                           std::vector<int>& newly_dead) {
  LockGuard guard(lock_);
  for (int p = 0; p < num_ranks_; ++p) {
    if (p == self_) continue;
    Cold& c = cold_[static_cast<std::size_t>(p)];
    if (c.state == PeerState::kDead) continue;
    Cell& cell = cells_[static_cast<std::size_t>(p)].value;

    std::uint64_t heard = cell.last_heard.load(std::memory_order_relaxed);
    if (heard == 0) {
      // No contact yet: baseline the epoch at first observation instead of
      // suspecting a peer we never exchanged a packet with. CAS so a racing
      // real packet's note_alive is never overwritten.
      cell.last_heard.compare_exchange_strong(heard, now_ns,
                                              std::memory_order_relaxed,
                                              std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t silence = now_ns - heard;

    if (silence < params_.suspect_ns) {
      if (c.state == PeerState::kSuspect) {
        // Recovered: traffic resumed before the strikes ran out.
        c.state = PeerState::kAlive;
        c.strikes = 0;
        tracer_.record(trace::Event::kPeerSuspect, static_cast<std::uint32_t>(p), 0);
      }
      // Advertise our own liveness on a sender-side cadence, NOT gated on
      // inbound silence. Receive-gated probing deadlocks symmetric
      // idleness: A's probes keep B's inbound silence low, so B never
      // probes back and A confirms a perfectly live peer dead.
      if (now_ns - c.last_probe_ns >= params_.heartbeat_ns) {
        c.last_probe_ns = now_ns;
        probes.push_back(p);
      }
      continue;
    }

    if (c.state == PeerState::kAlive) {
      c.state = PeerState::kSuspect;
      c.strikes = 0;
      c.last_strike_ns = now_ns;
      c.last_probe_ns = now_ns;
      spc_.add(Counter::kFtSuspects);
      tracer_.record(trace::Event::kPeerSuspect, static_cast<std::uint32_t>(p), 1);
      probes.push_back(p);
      continue;
    }

    // kSuspect: one strike per unanswered probe interval.
    if (now_ns - c.last_strike_ns < params_.heartbeat_ns) continue;
    c.last_strike_ns = now_ns;
    if (++c.strikes < params_.strikes) {
      c.last_probe_ns = now_ns;
      probes.push_back(p);
      continue;
    }

    // Confirmed dead (terminal). Detection latency = last contact to now.
    c.state = PeerState::kDead;
    cell.dead.store(true, std::memory_order_release);
    spc_.add(Counter::kFtDeaths);
    const std::uint64_t ms = silence / 1'000'000;
    spc_.record(spc::Hist::kFtDetectionMs, ms);
    tracer_.record(trace::Event::kPeerDead, static_cast<std::uint32_t>(p),
                   static_cast<std::uint32_t>(ms));
    newly_dead.push_back(p);
  }
}

PeerState FailureDetector::state(int peer) const {
  LockGuard guard(lock_);
  return cold_[static_cast<std::size_t>(peer)].state;
}

}  // namespace fairmpi::ft
