// Multirate-pairwise (paper ref [6]) over the *real* fairmpi engine.
//
// Spawns pairs of communication entities — sender on one rank, receiver on
// another (paper Fig. 2) — and measures the aggregate message rate over a
// timed window-flow-controlled run, with the receiver-side SPC delta
// captured for Table II-style reporting.
//
// Thread mode: one 2-rank universe; entity i is thread i of its rank.
// Process mode: a 2N-rank universe of single-threaded ranks; pair i is
// ranks (2i, 2i+1) — within one address space (the fairmpi universe is
// in-process by design), but with fully private communication resources,
// which is what distinguishes process mode in the paper's comparison.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/core/config.hpp"
#include "fairmpi/spc/spc.hpp"

namespace fairmpi::multirate {

struct MultirateConfig {
  Config engine;               ///< instances / assignment / progress / overtaking
  int pairs = 1;
  bool process_mode = false;   ///< pair = two single-threaded ranks
  bool comm_per_pair = false;  ///< dedicated communicator per pair (Fig. 3c)
  bool any_tag = false;        ///< post receives with kAnyTag (Fig. 4)
  std::size_t payload_bytes = 0;
  int window = 128;
  double duration_s = 0.25;    ///< timed measurement length

  /// Observability exports, written after the run while the universe is
  /// still alive (empty = no export). trace_out holds Chrome trace-event
  /// JSON (enable recording via FAIRMPI_TRACE=1 or engine.trace_enabled);
  /// obs_out holds the Universe::dump_observability() snapshot.
  std::string trace_out;
  std::string obs_out;

  /// Deterministically exercise the contention profiler against the
  /// engine's two hottest lock classes (cri.instance, match.engine) before
  /// exporting: a holder thread pins each lock while this thread runs the
  /// real blocking operation behind it. A timed workload alone cannot
  /// guarantee preemption-driven contention on a 1-2 core CI runner, so
  /// the obs_report.py --require-wait gate opts into this; on bigger
  /// machines the run's natural contention lands on top. No-op unless the
  /// obs layer is enabled.
  bool obs_selfcheck = false;
};

/// Typed failures of one run, warmup included, counted by
/// common::ErrorCode (index = code, so the kOk cell stays 0).
struct FailureCounts {
  using ByCode = std::array<std::uint64_t, common::kNumErrorCodes>;
  ByCode recvs{};  ///< receives that settled failed
  /// Errors the ranks reported to their error sink, so sends need no
  /// tally of their own: every failed eager send lands here (fail-fast on
  /// a dead peer or a revoked communicator, injection failures, and late
  /// ones such as retry exhaustion). Receives the end-of-run drain cancels
  /// as surplus are not failures.
  ByCode reported{};

  std::uint64_t total() const noexcept;
};

/// One message stream's end-of-run totals, warmup and drain included.
struct StreamTotals {
  std::uint64_t sent = 0;      ///< sends that did not fail
  std::uint64_t received = 0;  ///< receives that succeeded
};

struct MultirateResult {
  double msg_rate = 0.0;          ///< delivered messages per wall second
  std::uint64_t delivered = 0;    ///< during the timed region
  double duration_s = 0.0;        ///< actual measured duration
  spc::Snapshot receiver_spc;     ///< receiver-side SPC delta (Table II)
  FailureCounts failures;
  /// One entry per drained stream: per pair, or one for all pairs when
  /// ANY_TAG receivers share a communicator (and one for the incast).
  std::vector<StreamTotals> streams;
};

/// Run the pairwise pattern once. Uses real threads; intended for
/// host-scale validation (a 2-core container cannot reproduce 20-pair
/// scaling — use the model backend for paper-scale sweeps). Both patterns
/// end with a drain: once the receivers leave the timed loop the senders
/// stop and publish their send counts, and the receivers keep receiving
/// until every sent message has arrived, so no send outlives its receiver.
MultirateResult run_pairwise(const MultirateConfig& cfg);

/// Incast pattern: N sender threads on rank 0 all target ONE receiver
/// thread on rank 1, sharing a single tag on the world communicator — the
/// worst case for the §II-C effects: one sequence stream fed by every
/// sender, so out-of-sequence pressure and matching-queue contention are
/// maximal. `cfg.pairs` is the sender count; `comm_per_pair`, `any_tag`
/// and `process_mode` do not apply (the pattern is about sharing).
MultirateResult run_incast(const MultirateConfig& cfg);

}  // namespace fairmpi::multirate
