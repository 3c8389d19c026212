// Control variables: the paper's hint mechanism (§III-B).
//
// "An implementation can provide the user with a way to give a hint via
// environment variable(s), MPI info key(s), or other means (MCA parameters
// for Open MPI or the new MPI control variables MPI_T cvar) to let the
// implementation know how many threads the application intends to use."
//
// fairmpi exposes every Config knob as a named control variable, settable
// programmatically (apply_cvar) or through FAIRMPI_* environment variables
// (config_from_env) — so a deployment can switch between the paper's
// designs without recompiling:
//
//   FAIRMPI_NUM_INSTANCES=20 FAIRMPI_ASSIGNMENT=dedicated ...
//   FAIRMPI_PROGRESS=concurrent ./my_app
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>

#include "fairmpi/core/config.hpp"

namespace fairmpi {

/// Every control variable, one row each, in listing order:
///   X(name, Config field, kind, lower bound, group, doc)
/// The environment variable is FAIRMPI_<NAME>, upper-cased. Kinds: U64
/// (an unsigned integer >= the lower bound), Prob (a probability in
/// [0, 1]), Bool (0|1|true|false|on|off), Enum (one of the field type's
/// cvar_spellings). Groups: Design knobs are read from the environment by
/// config_from_env only; Universe also reads the Fault, Obs, Cap and
/// Deadline groups for a programmatic Config (the chaos hook), so a CI job
/// can replay a whole suite over a lossy fabric, traced or under tiny caps,
/// without touching a call site.
#define FAIRMPI_CVARS(X)                                                                        \
  X(num_instances, num_instances, U64, 1, Design, "CRIs per rank")                              \
  X(assignment, assignment, Enum, 0, Design,                                                    \
    "thread to CRI assignment: rr, round-robin or dedicated")                                   \
  X(progress, progress_mode, Enum, 0, Design, "progress design: serial or concurrent (Alg. 2)") \
  X(allow_overtaking, allow_overtaking, Bool, 0, Design,                                        \
    "skip sequence validation on every communicator")                                           \
  X(progress_batch, progress_batch, U64, 1, Design,                                             \
    "max packets drained from one RX lane per visit")                                           \
  X(eager_limit, eager_limit, U64, 0, Design, "largest payload sent eagerly, in bytes")         \
  X(rndv_frag_bytes, rndv_frag_bytes, U64, 1, Design, "rendezvous fragment size, in bytes")     \
  X(rx_ring_entries, fabric.rx_ring_entries, U64, 2, Design,                                    \
    "per-lane RX depth: the per-source credit window")                                          \
  X(submit_ring_entries, submit_ring_entries, U64, 2, Design,                                   \
    "per-CRI lock-free submission ring depth")                                                  \
  X(cq_entries, fabric.cq_entries, U64, 2, Design, "per-context completion queue depth")        \
  X(max_communicators, max_communicators, U64, 1, Design, "communicator table capacity")        \
  X(fault_drop, faults.drop, Prob, 0, Fault, "per-packet drop probability")                     \
  X(fault_dup, faults.dup, Prob, 0, Fault, "per-packet duplication probability")                \
  X(fault_delay, faults.delay, Prob, 0, Fault, "per-packet delay probability")                  \
  X(fault_reorder, faults.reorder, Prob, 0, Fault, "per-packet reordering probability")         \
  X(fault_corrupt, faults.corrupt, Prob, 0, Fault, "per-packet corruption probability")         \
  X(fault_seed, faults.seed, U64, 0, Fault, "fault injector master seed")                       \
  X(reliable, reliable, Bool, 0, Fault, "ack/retransmit protocol and wire checksums")           \
  X(rto_ns, rto_ns, U64, 1, Fault, "initial retransmit timeout, doubling per retry")            \
  X(rto_max_ns, rto_max_ns, U64, 1, Fault, "retransmit timeout ceiling")                        \
  X(max_retries, max_retries, U64, 0, Fault,                                                    \
    "unacked attempts before a send fails typed (0 = fail fast)")                               \
  X(reliability_window, reliability_window, U64, 0, Fault,                                      \
    "tracked-unacked packets per stream before a reliable send waits (0 = unbounded)")          \
  X(send_retry_limit, send_retry_limit, U64, 1, Fault,                                          \
    "EAGAIN retries of one injection before it fails typed")                                    \
  X(trace, trace_enabled, Bool, 0, Obs, "record the per-rank trace ring from construction")     \
  X(trace_entries, trace_entries, U64, 0, Obs, "trace ring capacity (0 with trace on: 65536)")  \
  X(obs, obs_enabled, Bool, 0, Obs,                                                             \
    "lock-contention profile and per-CRI utilization (process-sticky)")                         \
  X(ft, ft_enabled, Bool, 0, Fault, "rank-failure tolerance: heartbeat failure detector")       \
  X(ft_heartbeat_ns, ft_heartbeat_ns, U64, 1, Fault, "failure-detector probe interval")         \
  X(ft_suspect_ns, ft_suspect_ns, U64, 1, Fault, "silence before a peer is suspected")          \
  X(ft_strikes, ft_strikes, U64, 1, Fault, "unanswered probe rounds before a suspect is dead")  \
  X(unexpected_cap, unexpected_cap, U64, 0, Cap,                                                \
    "per-peer unexpected-queue depth cap (0 = unlimited)")                                      \
  X(payload_pool_cap, payload_pool_cap_bytes, U64, 0, Cap,                                      \
    "process payload-pool byte cap (0 = unlimited)")                                            \
  X(tracker_cap, tracker_cap, U64, 0, Cap,                                                      \
    "in-flight reliability-tracker entries per rank (0 = unlimited)")                           \
  X(op_deadline_ns, op_deadline_ns, U64, 0, Deadline,                                           \
    "default deadline of the checked ops (0 = none)")                                           \
  X(coll_segment_bytes, coll_segment_bytes, U64, 0, Design,                                     \
    "pipeline segment of large collectives (0 = none)")                                         \
  X(coll_rsag_min_bytes, coll_rsag_min_bytes, U64, 0, Design,                                   \
    "smallest allreduce run as reduce-scatter + allgather")

enum class CvarKind : std::uint8_t { kU64, kProb, kBool, kEnum };
enum class CvarGroup : std::uint8_t { kDesign, kFault, kObs, kCap, kDeadline };

struct CvarInfo {
  const char* name;
  CvarKind kind;
  std::uint64_t min;  ///< lower bound of a U64 cvar
  CvarGroup group;
  const char* doc;
};

inline constexpr CvarInfo kCvars[] = {
#define FAIRMPI_CVAR_INFO(name, field, kind, min, group, doc) \
  {#name, CvarKind::k##kind, min, CvarGroup::k##group, doc},
    FAIRMPI_CVARS(FAIRMPI_CVAR_INFO)
#undef FAIRMPI_CVAR_INFO
};
inline constexpr std::size_t kNumCvars = std::size(kCvars);

/// One accepted spelling of an Enum cvar's value. Several may name one
/// value; the first for each value is the one list_cvars prints.
template <class E>
struct CvarSpelling {
  std::string_view text;
  E value;
};

inline constexpr CvarSpelling<cri::Assignment> kAssignmentSpellings[] = {
    {"round-robin", cri::Assignment::kRoundRobin},
    {"rr", cri::Assignment::kRoundRobin},
    {"dedicated", cri::Assignment::kDedicated},
};
inline constexpr CvarSpelling<progress::ProgressMode> kProgressSpellings[] = {
    {"serial", progress::ProgressMode::kSerial},
    {"concurrent", progress::ProgressMode::kConcurrent},
};

constexpr std::span<const CvarSpelling<cri::Assignment>> cvar_spellings(cri::Assignment) {
  return kAssignmentSpellings;
}
constexpr std::span<const CvarSpelling<progress::ProgressMode>> cvar_spellings(
    progress::ProgressMode) {
  return kProgressSpellings;
}

/// The groups Universe reads from the environment even for a programmatic
/// Config: all but the design knobs, so a test's explicitly constructed
/// design is never silently overridden.
constexpr bool read_by_chaos_hook(CvarGroup g) noexcept { return g != CvarGroup::kDesign; }

/// Apply one control variable to a Config by its (case-sensitive) name.
/// Returns false (leaving cfg untouched) on unknown name or bad value.
bool apply_cvar(Config& cfg, std::string_view name, std::string_view value);

/// Build a Config from FAIRMPI_<UPPERCASE_NAME> environment variables,
/// starting from `base`. Unset variables keep the base value; malformed
/// values abort (a misspelled deployment knob should be loud).
Config config_from_env(Config base = {});

/// Apply FAIRMPI_<UPPERCASE_NAME> for each control variable whose group
/// `pick` selects and that is set; a malformed value aborts. Reads the
/// environment once per selected cvar and allocates nothing.
void apply_env_cvars(Config& cfg, bool (*pick)(CvarGroup));

/// Human-readable list of every control variable with its current value —
/// the MPI_T-style introspection surface.
std::string list_cvars(const Config& cfg);

}  // namespace fairmpi
