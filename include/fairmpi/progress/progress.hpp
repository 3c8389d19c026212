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
//     policy); only when that instance yields nothing (no completion, no
//     ack that retired a tracked packet) does it sweep the other
//     instances, from a thread-local rotating start, which both
//     avoids convoying and guarantees that orphaned instances (e.g. whose
//     dedicated thread exited) are still progressed eventually. RMA flush
//     (rma/window.cpp) runs the same pass: its own instance first, the
//     others only when that yields nothing.
//
// Every instance visit is one gated visit (visit()): it reads the
// context's work word (fabric.hpp) with one relaxed load and, when no
// producer has rung it, returns without touching the lock, the rings or a
// drain batch. An idle call therefore touches no instance line.
//
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
  /// packets in arrival order; returns user-visible completions and adds
  /// to `acked` the tracked packets its acks retired. The drained
  /// instance's lock is already released, so the sink may inject.
  /// core::Rank answers the batch's reliability notices once, after its
  /// last packet (DESIGN.md §5c "Per-drain acks").
  virtual std::size_t handle_packets(fabric::Packet* pkts, std::size_t n,
                                     std::size_t& acked) = 0;
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

  /// What one visit, one Alg. 2 pass of visits, or one progress call did.
  struct Visit {
    std::size_t completions = 0;
    std::size_t acked = 0;  ///< tracked packets acks retired: Alg. 2 progress, not completions
    bool drained = false;  ///< a lock was taken and the instance drained
    bool refused = false;  ///< a try_lock failed on an instance whose word was set

    bool productive() const noexcept { return completions != 0 || acked != 0; }
  };

  /// One progress call (unproductive does not imply quiescence: the
  /// engine may have been busy).
  Visit progress();

  /// How a visit takes the instance lock.
  enum class Take : std::uint8_t { kTry, kBlock };

  /// The one instance visit: gate on the work word (unset: return at once),
  /// take the lock (try or block), drain, release, dispatch. `sweep` marks
  /// a visit to an instance other than the caller's own (obs).
  Visit visit(cri::CommResourceInstance& inst, Take take, bool sweep);

  /// One Algorithm 2 pass: the caller's own instance, then — only when it
  /// is not productive — the others from a thread-local rotating start,
  /// stopping at the first productive one. Used by progress() in
  /// concurrent mode and by RMA flush. Counts try-lock refusals.
  Visit pass();

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

  /// Take the work word, then pop up to a batch of completions + packets;
  /// rings the word again when a pop filled the cap. Instance lock held.
  void drain_locked(cri::CommResourceInstance& inst, DrainBatch& b)
      FAIRMPI_REQUIRES(inst.lock());
  /// Observability bookkeeping for one finished drain visit (lock already
  /// released): the obs-only per-CRI cells + the kCriDrain trace event.
  void note_drain(cri::CommResourceInstance& inst, const DrainBatch& b, bool sweep);
  /// Hand a drained batch to the sink; adds its haul to `v`.
  void dispatch(DrainBatch& b, Visit& v);

  Visit progress_serial();

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
