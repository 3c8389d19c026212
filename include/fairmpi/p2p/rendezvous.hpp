// Rendezvous protocol for large messages (extension beyond the paper's
// zero/small-byte experiments; DESIGN.md §6).
//
// Eager sends copy the payload at injection, which is wasteful past a few
// tens of KiB. Above Config::eager_limit the engine switches to
// rendezvous:
//
//   sender                         receiver
//   ──────                        ────────
//   RndvRts (envelope only,        matching engine matches the RTS like an
//     seq-numbered; 16-byte body     eager envelope (same FIFO/overtaking
//     carries total size + sender    semantics) but does not copy; it
//     cookie)                        reports the match to the rendezvous
//                                    hook, which schedules…
//   …RndvAck (receiver cookie) ◄──  an ack through the control queue
//   data fragments (RndvData,  ──►  copied straight into the posted
//     frag offset via hdr.seq)       buffer; the receive completes when
//                                    every fragment has landed; the send
//                                    completes when the last fragment is
//                                    injected.
//
// Lock discipline: matches and acks are discovered while holding the
// matching lock and possibly a CRI lock; sending from those contexts could
// deadlock two progress threads acquiring each other's instances. All
// protocol sends are therefore *deferred* to a control queue drained by
// Rank::progress() outside any engine lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>

#include "fairmpi/fabric/wire.hpp"
#include "fairmpi/p2p/reliability.hpp"
#include "fairmpi/p2p/request.hpp"

namespace fairmpi::p2p {

/// 16-byte body of a RndvRts packet.
struct RtsBody {
  std::uint64_t total = 0;         ///< full message size
  std::uint64_t sender_cookie = 0; ///< sender-side RndvSendState id
};
static_assert(sizeof(RtsBody) == 16);

inline RtsBody read_rts_body(const fabric::Packet& pkt) {
  RtsBody body;
  std::memcpy(&body, pkt.payload(), sizeof body);
  return body;
}

/// Sender-side state of one rendezvous transfer, registered under a cookie
/// so wire packets can reference it safely.
struct RndvSendState {
  const std::byte* data = nullptr;
  std::uint64_t total = 0;
  int dst = 0;
  std::uint32_t comm = 0;
  Request* request = nullptr;  ///< completes when all fragments are injected
  std::uint64_t born_ns = 0;   ///< registration time (exported rndv age)
  /// Cancelled or deadline-expired before the receiver's ack arrived. Set
  /// under the rendezvous registry lock; the kSendData drain checks it
  /// after claiming the state and discards instead of streaming fragments
  /// from a buffer the settled owner may already have freed.
  bool failed = false;
};

/// Receiver-side state of one rendezvous transfer.
struct RndvRecvState {
  Request* request = nullptr;
  std::byte* buffer = nullptr;
  std::uint64_t capacity = 0;
  std::uint64_t total = 0;                  ///< size announced by the RTS
  std::atomic<std::uint64_t> remaining{0};  ///< bytes still in flight
  Status status{};                          ///< published when remaining hits 0
  std::uint64_t born_ns = 0;   ///< registration time (exported rndv age)
  /// ft: source confirmed dead mid-transfer. Set under the rendezvous
  /// registry lock; handle_rndv_data checks it there (next to the fragment
  /// dedup) and discards, so no *new* deliverer touches the buffer after
  /// the request was failed. The state stays registered (never erased by
  /// the purge) — erasing could free it under a deliverer that claimed its
  /// pointer before the death was confirmed.
  bool failed = false;

  // Fragment-seen bitmap, allocated only in reliable mode: a duplicated or
  // retransmitted RndvData fragment must not double-decrement `remaining`.
  // fetch_or makes exactly one deliverer of each fragment the winner.
  std::unique_ptr<std::atomic<std::uint64_t>[]> frag_seen;
  std::size_t frag_words = 0;

  /// Atomically mark fragment `index` seen; true when this caller is first.
  bool mark_fragment(std::uint32_t index) noexcept {
    if (frag_seen == nullptr) return true;  // unreliable fabric: no dups
    const std::size_t word = index / 64;
    if (word >= frag_words) return false;   // corrupt index past the bitmap
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    return (frag_seen[word].fetch_or(bit, std::memory_order_acq_rel) & bit) == 0;
  }
};

/// Deferred protocol action, queued from locked contexts and executed by
/// Rank::progress() with no engine lock held.
struct ControlMsg {
  enum class Kind : std::uint8_t {
    kNone = 0,
    kSendAck,         ///< rendezvous clear-to-send
    kSendData,        ///< rendezvous data burst
    kSendPacketAck,   ///< reliability ack echoing a received packet's key
    kSendPacketDefer, ///< deferral notice echoing a deferred packet's key (§5h)
  };
  Kind kind = Kind::kNone;
  int peer = 0;                     ///< rank to talk to
  std::uint32_t comm = 0;
  std::uint64_t local_cookie = 0;   ///< our state id
  std::uint64_t remote_cookie = 0;  ///< peer's state id (kSendPacketAck: imm)
  std::uint32_t seq = 0;            ///< kSendPacketAck: acked packet's seq
  std::uint16_t ack_opcode = 0;     ///< kSendPacketAck: acked packet's opcode
  std::uint32_t ack_count = 1;      ///< kSendPacketAck: run of seqs from `seq`
};

/// Queued notices a new ack looks back over for its stream's run: enough
/// to see past the other streams one drain interleaves, few enough to stay
/// a handful of compares under the queue lock.
inline constexpr std::size_t kAckLookback = 8;

/// Queue a reliability notice (kSendPacketAck/Defer) on an ack queue
/// (ranged acks, DESIGN.md §5c): the rank's std::deque, or one drain's
/// NoticeBatch, so both build runs by the same rule. A plain ack extends
/// its stream's queued run when it names the run's next seq; a stream is
/// one (peer, comm, acked opcode, imm). The newest entry of the stream
/// among the last kAckLookback decides: a deferral, a gap or a run at
/// kMaxAckRun there starts a new entry, so no run spans one of them.
/// Deferrals are never merged.
template <class Queue>
void queue_ack(Queue& q, const ControlMsg& msg) {
  if (msg.kind == ControlMsg::Kind::kSendPacketAck) {
    std::size_t looked = 0;
    for (auto it = q.rbegin(); it != q.rend() && looked < kAckLookback; ++it, ++looked) {
      if (it->peer != msg.peer || it->comm != msg.comm ||
          it->ack_opcode != msg.ack_opcode || it->remote_cookie != msg.remote_cookie) {
        continue;
      }
      if (it->kind == msg.kind && it->seq + it->ack_count == msg.seq &&
          it->ack_count < kMaxAckRun) {
        ++it->ack_count;
        return;
      }
      break;
    }
  }
  q.push_back(msg);
}

/// One drain's notices, on the caller's stack (DESIGN.md §5c "Per-drain
/// acks"): a fixed array that is never value-initialized, since a drain
/// answers far fewer packets than it could hold. Only [begin, end) is live.
template <std::size_t N>
class NoticeBatch {
 public:
  NoticeBatch() noexcept {}
  static constexpr std::size_t capacity() noexcept { return N; }
  std::size_t size() const noexcept { return n_; }
  const ControlMsg* begin() const noexcept { return s_.items; }
  const ControlMsg* end() const noexcept { return s_.items + n_; }
  std::reverse_iterator<ControlMsg*> rbegin() noexcept {
    return std::reverse_iterator<ControlMsg*>(s_.items + n_);
  }
  std::reverse_iterator<ControlMsg*> rend() noexcept {
    return std::reverse_iterator<ControlMsg*>(s_.items);
  }
  /// Append one notice; the caller keeps the batch within capacity().
  void push_back(const ControlMsg& msg) noexcept { std::construct_at(&s_.items[n_++], msg); }

 private:
  union Storage {
    Storage() noexcept {}
    ControlMsg items[N];
  } s_;
  std::size_t n_ = 0;
};

/// Observer the matching engine calls when it matches a rendezvous RTS
/// (instead of copying payload). Implemented by core::Rank.
class RendezvousHook {
 public:
  virtual ~RendezvousHook() = default;
  /// Called with the matching lock held; must only record + enqueue
  /// control work, never inject.
  virtual void on_rts_matched(Request* req, const fabric::Packet& rts) = 0;
};

}  // namespace fairmpi::p2p
