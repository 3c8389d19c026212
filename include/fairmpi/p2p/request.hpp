// Two-sided communication requests.
//
// A Request is the caller-owned handle for a nonblocking operation, kept
// alive until wait()/test() observes completion (standard MPI semantics).
// Completion may be signalled by any thread running the progress engine, so
// the done flag is an acquire/release atomic and all result fields (status,
// truncation) are written before the release store.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "fairmpi/common/error.hpp"

namespace fairmpi::p2p {

/// Wildcards, mirroring MPI_ANY_TAG / MPI_ANY_SOURCE.
inline constexpr int kAnyTag = -1;
inline constexpr int kAnySource = -1;

/// Result of a completed receive.
struct Status {
  int source = kAnySource;    ///< actual sending rank
  int tag = kAnyTag;          ///< actual message tag
  std::size_t size = 0;       ///< payload size as sent
  bool truncated = false;     ///< payload exceeded the receive buffer
};

class Request;

/// Engine-side owner a cancel must route through while the request sits on
/// internal queues: the matching engine for posted receives, the rank for
/// registered rendezvous transfers. cancel_request takes the owning lock,
/// checks the request is still queued, unlinks it and settles kCancelled —
/// so a cancel can never race a matcher into losing a consumed message.
/// Returns true when this call cancelled the request.
class CancelScope {
 public:
  virtual ~CancelScope() = default;
  virtual bool cancel_request(Request* req) = 0;
};

class Request {
 public:
  enum class Kind : std::uint8_t { kNone, kSend, kRecv };

  Request() = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

  /// Valid once done() is true (for receives).
  const Status& status() const noexcept { return status_; }

  Kind kind() const noexcept { return kind_; }

  /// Best-effort cancellation (DESIGN.md §5h). Routed through the engine
  /// owner while the request is queued (posted receive, rendezvous
  /// transfer) so cancel-vs-match races settle exactly once; otherwise the
  /// request is failed kCancelled directly. Returns true when this call
  /// cancelled it; false when the operation already completed (or another
  /// settle won — the MPI caveat applies: a cancelled *send* may still
  /// have been delivered). wait() must still be called as usual.
  bool cancel() {
    if (done()) return false;
    CancelScope* scope = cancel_scope_.load(std::memory_order_acquire);
    if (scope != nullptr) return scope->cancel_request(this);
    return fail(common::ErrorCode::kCancelled);
  }

  /// Absolute per-op deadline in engine time (0 = none); settled
  /// kDeadlineExceeded by the progress-driven expiry sweep once passed.
  std::uint64_t deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  // --- engine-internal below (set up by Rank::isend/irecv, completed by the
  //     matching engine / progress) ---

  void init_send(std::uint64_t deadline_ns = 0) noexcept {
    kind_ = Kind::kSend;
    error_ = common::ErrorCode::kOk;
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
    cancel_scope_.store(nullptr, std::memory_order_relaxed);
    // Release: a cancel() from another thread settles through the CAS on
    // settled_, which then sees this cycle's fields initialised.
    settled_.store(false, std::memory_order_release);
    done_.store(false, std::memory_order_relaxed);
  }

  void init_recv(void* buffer, std::size_t capacity, int source, int tag,
                 std::uint64_t deadline_ns = 0) noexcept {
    kind_ = Kind::kRecv;
    buffer_ = buffer;
    capacity_ = capacity;
    source_ = source;
    tag_ = tag;
    error_ = common::ErrorCode::kOk;
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
    cancel_scope_.store(nullptr, std::memory_order_relaxed);
    // Release: a cancel() from another thread settles through the CAS on
    // settled_, which then sees this cycle's fields initialised.
    settled_.store(false, std::memory_order_release);
    done_.store(false, std::memory_order_relaxed);
  }

  /// Install the engine owner cancels route through (match engine on post,
  /// rank on rendezvous registration). Release: the owner must be fully
  /// set up before a concurrent cancel() can reach it.
  void set_cancel_scope(CancelScope* scope) noexcept {
    cancel_scope_.store(scope, std::memory_order_release);
  }

  void* buffer() const noexcept { return buffer_; }
  std::size_t capacity() const noexcept { return capacity_; }
  int source_filter() const noexcept { return source_; }
  int tag_filter() const noexcept { return tag_; }

  std::uint64_t post_stamp = 0;  ///< matching order among posted receives

  // Intrusive hooks for the matching engine's posted queues (see
  // common/intrusive_list.hpp). A posted receive sits on exactly one list —
  // its peer's queue or the any-source queue — so one hook pair suffices.
  // Owned (read and written) exclusively under the match lock.
  Request* mq_prev = nullptr;
  Request* mq_next = nullptr;

  /// Publish completion. Must be the last write touching this request.
  /// Returns true when this call won the one-shot settle race (see
  /// try_settle): losers must not count the completion in SPCs — the
  /// classic double-settle is a reliability-sweep failure racing a late
  /// duplicate ack's delivery.
  bool complete(const Status& status) noexcept {
    if (!try_settle()) return false;
    status_ = status;
    done_.store(true, std::memory_order_release);
    return true;
  }

  bool complete() noexcept {
    if (!try_settle()) return false;
    done_.store(true, std::memory_order_release);
    return true;
  }

  /// Publish completion *with* a typed error (graceful degradation: the
  /// operation could not be performed — e.g. the EAGAIN retry budget ran
  /// out). done() becomes true so wait() returns; callers inspect error().
  /// One-shot like complete(): a request already settled (either way)
  /// ignores the fail and reports false.
  bool fail(common::ErrorCode code) noexcept {
    if (!try_settle()) return false;
    error_ = code;
    done_.store(true, std::memory_order_release);
    return true;
  }

  /// kOk unless the request completed with fail(). Valid once done().
  common::ErrorCode error() const noexcept { return error_; }
  bool failed() const noexcept { return error_ != common::ErrorCode::kOk; }

 private:
  /// CAS state guard making completion terminal: exactly one of
  /// complete()/fail() transitions the request per init_* cycle. acq_rel so
  /// the winner's result writes are ordered before any loser's observation.
  bool try_settle() noexcept {
    bool expected = false;
    return settled_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
  }

  std::atomic<bool> done_{false};
  std::atomic<bool> settled_{false};
  std::atomic<std::uint64_t> deadline_ns_{0};
  std::atomic<CancelScope*> cancel_scope_{nullptr};
  Kind kind_ = Kind::kNone;
  void* buffer_ = nullptr;
  std::size_t capacity_ = 0;
  int source_ = kAnySource;
  int tag_ = kAnyTag;
  Status status_{};
  common::ErrorCode error_ = common::ErrorCode::kOk;
};

}  // namespace fairmpi::p2p
