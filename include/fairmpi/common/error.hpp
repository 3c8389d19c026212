// Fail-fast error handling.
//
// fairmpi is an engine, not an application framework: internal invariant
// violations abort immediately with a location, mirroring how MPI
// implementations treat internal corruption (there is no meaningful way to
// continue once a matching queue or ring buffer is inconsistent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace fairmpi::common {

/// Typed, recoverable engine errors (graceful degradation — DESIGN.md
/// "Fault model & reliability layer"). Unlike the FAIRMPI_CHECK aborts
/// below, these describe conditions a correctly-functioning engine can hit
/// on a misbehaving fabric: they surface through SPC counters, the trace
/// ring, and the rank's error sink instead of terminating the process.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kSendBudgetExhausted,   ///< EAGAIN retry budget spent without injecting
  kRetryExhausted,        ///< retransmit limit reached without an ack
  kPeerFailed,            ///< ft: operation targeted a confirmed-dead rank
  kCommRevoked,           ///< ft: operation on a revoked communicator
  kCancelled,             ///< request cancelled by the application
  kDeadlineExceeded,      ///< per-op deadline expired before completion
  kQuiesceTimeout,        ///< quiesce gave up with backlog still pending
  kReservedTag,           ///< user op posted a tag inside the reserved block
};

/// Number of ErrorCode values (kOk included), for tables indexed by code.
inline constexpr std::size_t kNumErrorCodes =
    static_cast<std::size_t>(ErrorCode::kReservedTag) + 1;

inline const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kOk: return "Ok";
    case ErrorCode::kSendBudgetExhausted: return "SendBudgetExhausted";
    case ErrorCode::kRetryExhausted: return "RetryExhausted";
    case ErrorCode::kPeerFailed: return "PeerFailed";
    case ErrorCode::kCommRevoked: return "CommRevoked";
    case ErrorCode::kCancelled: return "Cancelled";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ErrorCode::kQuiesceTimeout: return "QuiesceTimeout";
    case ErrorCode::kReservedTag: return "ReservedTag";
  }
  return "Unknown";
}

/// One reported error. `detail` is code-specific: the packet seq for
/// retransmit exhaustion, for example.
struct Error {
  ErrorCode code = ErrorCode::kOk;
  int rank = -1;          ///< reporting rank
  int peer = -1;          ///< peer involved (-1 when not applicable)
  std::uint64_t detail = 0;
};

/// Error callback: invoked synchronously on the thread that detected the
/// condition. No CRI or matching lock is ever held at the call. Handlers
/// must be cheap, reentrant, and must not call back into the engine.
using ErrorSink = void (*)(const Error& err, void* user);

}  // namespace fairmpi::common

namespace fairmpi::detail {

[[noreturn]] inline void fail(const char* file, int line, const char* expr,
                              std::string_view msg = {}) {
  std::fprintf(stderr, "fairmpi: check failed at %s:%d: %s%s%.*s\n", file, line, expr,
               msg.empty() ? "" : " — ", static_cast<int>(msg.size()),
               msg.empty() ? "" : msg.data());
  std::fflush(stderr);
  std::abort();
}

}  // namespace fairmpi::detail

/// Always-on invariant check (kept in release builds; these guard correctness
/// of concurrent data structures where silent corruption is far worse than
/// the branch cost).
#define FAIRMPI_CHECK(expr)                                           \
  do {                                                                \
    if (!(expr)) ::fairmpi::detail::fail(__FILE__, __LINE__, #expr);  \
  } while (0)

#define FAIRMPI_CHECK_MSG(expr, msg)                                       \
  do {                                                                     \
    if (!(expr)) ::fairmpi::detail::fail(__FILE__, __LINE__, #expr, msg);  \
  } while (0)

/// Debug-only check for hot paths.
#ifndef NDEBUG
#define FAIRMPI_DCHECK(expr) FAIRMPI_CHECK(expr)
#else
#define FAIRMPI_DCHECK(expr) \
  do {                       \
  } while (0)
#endif
