// The progress engine (§II-B, §III-E, Algorithm 2).
//
// Two designs, selectable at runtime:
//
//   * kSerial — the traditional Open MPI scheme: a single thread at a time
//     may progress communications. A thread that finds the engine busy
//     returns immediately (as opal_progress does under THREAD_MULTIPLE);
//     the holder sweeps every CRI. Message extraction is limited to the
//     power of one thread.
//
//   * kConcurrent — Algorithm 2: every thread may progress. A thread
//     try-locks its *own* instance first (per the pool's assignment
//     policy); only when that instance yields no completions does it sweep
//     the other instances round-robin, which both avoids convoying and
//     guarantees that orphaned instances (e.g. whose dedicated thread
//     exited) are still progressed eventually.
// Lock-scope discipline: progress drains an instance's CQ and RX ring into
// stack buffers *while holding the CRI lock*, then releases it and hands the
// batch to the sink (matching, completion owners) lock-free. The instance
// lock therefore covers only ring pops — a few hundred ns for a full batch —
// instead of the whole matching pipeline, which is where Algorithm 2's
// try-lock sweep was previously losing its concurrency. Dispatch order
// within a batch is preserved (completions first, packets in arrival
// order); cross-batch interleaving with other progress threads is exactly
// as arbitrary as the fabric already is, and the matching engine's sequence
// validation owns ordering correctness.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/cri/cri.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::progress {

enum class ProgressMode {
  kSerial,
  kConcurrent,
};

const char* progress_mode_name(ProgressMode m) noexcept;

/// Where extracted traffic goes: implemented by core::Rank, which dispatches
/// packets to the matching engine and completions to their owners.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// Handle one drained batch of `n` (at most ProgressEngine::kMaxDrainBatch)
  /// packets in arrival order; returns user-visible completions. With
  /// `locked` the caller still holds the drained instance's lock, so the
  /// sink must not inject: an injection could wait on that very lock.
  /// core::Rank answers the batch's reliability notices once, after its
  /// last packet (DESIGN.md §5c "Per-drain acks").
  virtual std::size_t handle_packets(fabric::Packet* pkts, std::size_t n, bool locked) = 0;
  /// Handle one completion-queue event; returns completions (usually 1).
  virtual std::size_t handle_completion(const fabric::Completion& c) = 0;
};

class ProgressEngine {
 public:
  /// @param batch  max packets drained from one RX ring per visit, bounding
  ///               lock hold time.
  /// @param tracer optional event ring: non-empty drains are recorded as
  ///               kCriDrain (a = instance id, b = batch size) so exported
  ///               traces get one lane per CRI.
  ProgressEngine(cri::CriPool& pool, PacketSink& sink, ProgressMode mode,
                 spc::CounterSet& counters, int batch = 64,
                 trace::Tracer* tracer = nullptr);

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  ProgressMode mode() const noexcept { return mode_; }

  /// One progress call. Returns the number of completions harvested
  /// (0 does not imply quiescence — the engine may have been busy).
  std::size_t progress();

  /// Drain one instance's CQ and RX ring and dispatch inline. The instance
  /// lock must be held by the caller (dispatch therefore runs under it —
  /// unavoidable here). Exposed for the RMA flush path, which polls its own
  /// instance directly (as btl-level flush does in Open MPI).
  std::size_t progress_instance_locked(cri::CommResourceInstance& inst)
      FAIRMPI_REQUIRES(inst.lock());

  /// Hard cap on one drain batch (the stack buffer size); the runtime
  /// `batch` knob is clamped to it.
  static constexpr std::size_t kMaxDrainBatch = 64;

 private:
  /// One instance visit's haul, staged on the caller's stack so dispatch
  /// can happen after the instance lock is dropped.
  struct DrainBatch {
    std::array<fabric::Completion, kMaxDrainBatch> comps;
    std::array<fabric::Packet, kMaxDrainBatch> pkts;
    std::size_t n_comps = 0;
    std::size_t n_pkts = 0;
  };

  /// Pop up to a batch of completions + packets. Instance lock held.
  void drain_locked(cri::CommResourceInstance& inst, DrainBatch& b)
      FAIRMPI_REQUIRES(inst.lock());
  /// Observability bookkeeping for one finished drain visit (lock already
  /// released): the obs-only per-CRI cells + the kCriDrain trace event.
  void note_drain(cri::CommResourceInstance& inst, const DrainBatch& b, bool sweep);
  /// Hand a drained batch to the sink; returns completions. `locked`: the
  /// caller still holds the instance lock (PacketSink::handle_packets).
  std::size_t dispatch(DrainBatch& b, bool locked);

  std::size_t progress_serial();
  std::size_t progress_concurrent();

  cri::CriPool& pool_;
  PacketSink& sink_;
  const ProgressMode mode_;
  spc::CounterSet& spc_;
  const int batch_;
  trace::Tracer* tracer_;
  /// Guard for the serial design; try-lock only, FIFO irrelevant since
  /// non-holders bail out. Lowest rank in the hierarchy: instance and
  /// match locks are acquired under it, never the reverse.
  RankedLock<Spinlock> serial_gate_{LockRank::kProgressGate, "progress.serial-gate"};
};

}  // namespace fairmpi::progress
