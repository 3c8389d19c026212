// The eager send path (Algorithm 1, SEND).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fairmpi/cri/cri.hpp"
#include "fairmpi/overload/overload.hpp"
#include "fairmpi/p2p/comm_state.hpp"
#include "fairmpi/p2p/reliability.hpp"
#include "fairmpi/p2p/request.hpp"
#include "fairmpi/progress/progress.hpp"
#include "fairmpi/spc/spc.hpp"

namespace fairmpi::p2p {

/// Reliability/backpressure policy for one send. The default — no tracker,
/// unbounded retry — is the paper's pristine-fabric behaviour.
struct SendPolicy {
  /// Non-null: register the packet for ack/retransmit before injecting.
  ReliabilityTracker* tracker = nullptr;
  /// Max EAGAIN retries before the send fails typed (kSendBudgetExhausted);
  /// 0 = retry forever. Bounding this turns a peer that never drains its
  /// ring from a livelock into a reported error.
  std::uint64_t retry_limit = 0;
  /// Max tracked-unacked packets before a send waits (progressing, before
  /// its sequence number is ticketed) until acks open the window; 0 =
  /// unbounded. Self-clocks a flood: without it thousands of unacked
  /// packets turn every sweep into a retransmit storm.
  std::size_t window = 0;
  /// Full-rank progress hook for the wait loops. The engine alone cannot
  /// transmit deferred acks (they leave via the rank's control drain), so
  /// blocking on `engine.progress()` while our peer blocks on our acks
  /// would deadlock a bidirectional flood.
  std::size_t (*progress)(void* user) = nullptr;
  void* progress_user = nullptr;
  /// ft hook: non-null when the failure detector runs. Checked at entry and
  /// inside both wait loops (admission, injection) so a send blocked on (or
  /// headed for) a peer that is confirmed dead mid-wait escapes with
  /// kPeerFailed instead of burning its whole EAGAIN/backpressure budget
  /// into a permanently-down link.
  bool (*peer_failed)(void* user, int dst) = nullptr;
  void* peer_failed_user = nullptr;
  /// Overload admission (DESIGN.md §5h): non-null adds the payload-pool
  /// and reliability-tracker caps to the window in the one admission loop
  /// that runs *before* the sequence number is ticketed, so a refused send
  /// never leaves a hole in the peer's ordered stream. kQueue caps wait
  /// (progressing) like the window; kShed caps fail the op typed
  /// kLocalOverloaded.
  overload::Governor* governor = nullptr;
  /// Absolute per-op deadline on the engine clock (now_ns; 0 = none): every
  /// wait loop abandons the send typed kDeadlineExceeded once passed.
  std::uint64_t deadline_ns = 0;
};

/// Execute one eager send: pass admission (window, tracker and pool caps),
/// ticket the sequence number, acquire a CRI per the pool's policy, inject through the per-peer endpoint; on backpressure
/// (full destination ring) release the instance, progress own resources,
/// spin-then-yield and retry up to the policy's budget. Completes `req`
/// before returning — normally (buffered-send semantics) or via
/// Request::fail when the retry budget runs out. Returns the outcome
/// (kOk or the failure code): once `req` is completed the waiting owner
/// may destroy it, so callers must consult the return value rather than
/// read `req` back.
///
/// Cancellation: another thread may Request::cancel() `req` while a wait
/// loop is blocked; the loop observes the settle and abandons the send
/// (untracking it). The caller must keep `req` alive until this function
/// returns — the handle hasn't been handed back yet, so that is the
/// natural ownership anyway.
common::ErrorCode eager_send(CommState& comm, cri::CriPool& pool,
                             progress::ProgressEngine& engine,
                             spc::CounterSet& counters, int src_rank, int dst, int tag,
                             const void* buf, std::size_t n, Request& req,
                             const SendPolicy& policy = {});

}  // namespace fairmpi::p2p
