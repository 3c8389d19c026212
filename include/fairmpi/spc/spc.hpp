// Software-based Performance Counters (SPCs) and the engine's one metrics
// registry.
//
// Mirrors the Open MPI SPC infrastructure the paper uses (ref [9]) to expose
// low-overhead internal statistics. Table II of the paper is built from two
// of these counters (out-of-sequence messages and total matching time); we
// expose the full set the engine maintains so benches and tests can assert
// on internal behaviour, not just end-to-end rates.
//
// Sharding: every thread of a rank updates every counter on every message,
// so a single shared atomic per counter serializes the whole engine on the
// counter cache line (the contention arXiv:2002.02509 measures dominating
// multi-VCI scaling). Every counter in the engine therefore lives in a
// ShardStore: each registered thread gets a private shard
// (common/thread_slot.hpp), written with plain relaxed stores — the owning
// thread is the only writer — and reads sum the shards. Totals are exact;
// only the interleaving of a snapshot against in-flight adds is approximate.
//
// Cells come in three kinds — sum, high-water (max) and log2 histogram (a
// run of sum cells, one per bucket) — and carry at most one label:
//   * a CRI id, in a rank's CounterSet (CriMetric / CriHist, DESIGN.md §5d);
//   * a lock class, in the process-global contention registry
//     (obs/contention.hpp), since lock classes are process-global.
// A rank total that is also tracked per CRI is recorded once, in the
// labelled cell, and read as the sum over labels (see rollup()).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/thread_slot.hpp"

namespace fairmpi::spc {

enum class Counter : int {
  kMessagesSent = 0,       ///< completed two-sided sends
  kMessagesReceived,       ///< matched + delivered two-sided receives
  kBytesSent,              ///< payload bytes injected
  kBytesReceived,          ///< payload bytes delivered
  kUnexpectedMessages,     ///< arrived before a matching receive was posted
  kOutOfSequence,          ///< arrived with seq != expected (buffered)
  kMatchTimeNs,            ///< total time spent holding a matching lock
  kMatchAttempts,          ///< entries into the matching critical section
  kPostedQueueDepth,       ///< posted receives inspected by arrival searches (sum)
  kUnexpectedQueueDepth,   ///< unexpected messages inspected by post searches (sum)
  kOosBufferPeak,          ///< high-water mark of the reorder buffer (max, not sum)
  kSendBackpressure,       ///< sends that had to retry on a full RX ring
  kProgressCalls,          ///< entries into the progress engine
  kProgressCompletions,    ///< completions harvested by progress
  kInstanceTrylockFail,    ///< failed try_lock on a CRI (Alg. 2 skip)
  kRmaPuts,                ///< one-sided put operations
  kRmaGets,                ///< one-sided get operations
  kRmaAccumulates,         ///< one-sided accumulate operations
  kRmaFlushes,             ///< passive-target flush operations
  kHeaderDrops,            ///< inbound packets failing structural validation
  kCsumDrops,              ///< inbound packets failing checksum verification
  kDupDiscards,            ///< duplicate deliveries discarded (exactly-once)
  kRetransmits,            ///< packets re-injected after an ack timeout
  kAcksSent,               ///< reliability ack packets injected (one per run, not per packet acked)
  kAcksReceived,           ///< well-formed reliability ack packets processed
  kReliabilityErrors,      ///< typed errors surfaced (budget/retry exhaustion)
  kWatchdogStalls,         ///< stalled instances/rendezvous flagged
  kSubmitQueued,           ///< injections routed through a submission ring
  kSubmitRingFull,         ///< submission attempts bounced off a full ring
  kSubmitDoorbells,        ///< batched doorbells rung by producers
  kSubmitCasRetries,       ///< submission-ring tail-CAS collisions
  kRmaFlushAllBusy,        ///< RMA flush sweeps that found every CRI busy
  kFtHeartbeatsSent,       ///< ft liveness probes injected on idle links
  kFtHeartbeatsReceived,   ///< ft liveness probes consumed
  kFtSuspects,             ///< peers that entered the suspect state
  kFtDeaths,               ///< peers confirmed dead
  kFtPeerFailedOps,        ///< operations completed with kPeerFailed
  kFtRevokedOps,           ///< operations refused/failed on a revoked comm
  kOverloadShedMessages,   ///< messages dropped at admission (kShed policy)
  kOverloadNacksSent,      ///< receiver-side NACKs queued for shed packets
  kOverloadNacksReceived,  ///< sender-side NACKs processed (op failed typed)
  kOverloadPausedPeers,    ///< peers latched paused (kQueue deferral at cap)
  kOverloadLevelChanges,   ///< degradation-ladder transitions (any direction)
  kOverloadPoolPeak,       ///< payload-pool in-use bytes high-water (max)
  kCancelledOps,           ///< requests settled kCancelled
  kDeadlineExceededOps,    ///< requests settled kDeadlineExceeded
  kQuiesceTimeouts,        ///< quiesce calls that gave up with backlog
  kCollOps,                ///< collective operations entered (any algorithm)
  kCollRounds,             ///< tree/ring rounds executed across collectives
  kCollSegments,           ///< pipeline segments sent (segmented algorithms)
  kCollLaneAcquires,       ///< collective tag lanes acquired
  kCollLaneWaits,          ///< lane acquisitions that had to spin for a free lane
  kCollBinomialOps,        ///< collectives run with the binomial-tree algorithm
  kCollRsagOps,            ///< allreduces run as reduce-scatter + allgather
  kCollPipelinedOps,       ///< collectives run with pipelined segmentation
  kReservedTagRejects,     ///< user ops refused for a tag in the reserved block
  kCount
};

constexpr int kNumCounters = static_cast<int>(Counter::kCount);

/// Human-readable counter name ("OutOfSequence", ...).
const char* counter_name(Counter c) noexcept;

/// True for max-style (high-water) counters, which merge/reset differently
/// from sums.
constexpr bool is_high_water(Counter c) noexcept {
  return c == Counter::kOosBufferPeak || c == Counter::kOverloadPoolPeak;
}

/// Bucket of a log2 histogram with `buckets` cells: 0 lands in bucket 0,
/// [2^(i-1), 2^i) in bucket i, and the last bucket overflows.
constexpr int log2_bucket(std::uint64_t v, int buckets) noexcept {
  const int b = static_cast<int>(std::bit_width(v));
  return b < buckets ? b : buckets - 1;
}

/// Per-CRI cells of a rank's registry, labelled by instance id. Metrics
/// marked "obs" are recorded only while obs::enabled(); the others are the
/// single write behind an always-on rank SPC (see rollup()).
enum class CriMetric : int {
  kInjections = 0,     ///< packets / RMA CQ events handed to the instance (obs)
  kPacketsDrained,     ///< packets popped by progress visits (obs)
  kCompletionsDrained, ///< CQ events popped by progress visits (obs)
  kOwnTrylockMisses,   ///< Alg. 2 try_lock misses on the thread's own instance
  kOrphanSweeps,       ///< non-empty visits by a non-owner thread (obs)
  kDrainVisits,        ///< progress visits, empty or not (obs)
  kSubmitClaimed,      ///< submission-ring slots claimed by producers
  kSubmitDoorbells,    ///< batched doorbells rung
  kSubmitCasRetries,   ///< producer tail-CAS collisions
  kCount
};
inline constexpr int kNumCriMetrics = static_cast<int>(CriMetric::kCount);

/// The rank SPC a per-CRI metric sums into (Counter::kCount: none). The
/// rank total reads the Counter's own cell plus every label's cell, so
/// kInstanceTrylockFail still counts sweep, serial-gate and RMA misses.
constexpr Counter rollup(CriMetric m) noexcept {
  switch (m) {
    case CriMetric::kOwnTrylockMisses: return Counter::kInstanceTrylockFail;
    case CriMetric::kSubmitClaimed: return Counter::kSubmitQueued;
    case CriMetric::kSubmitDoorbells: return Counter::kSubmitDoorbells;
    case CriMetric::kSubmitCasRetries: return Counter::kSubmitCasRetries;
    default: return Counter::kCount;
  }
}

/// Per-CRI batch-size histograms (obs). A batch of n >= 1 lands in
/// log2_bucket(n - 1): 1 | 2 | 3-4 | 5-8 | 9-16 | 17-32 | 33+.
enum class CriHist : int { kDrainBatch = 0, kSubmitFlush, kCount };
inline constexpr int kBatchHistBuckets = 7;

/// Unlabelled rank histograms (always on): value v lands in
/// log2_bucket(v, kHistBuckets).
enum class Hist : int {
  kFtDetectionMs = 0,  ///< ft last-contact-to-confirmed-dead latency, ms
  kCount
};
inline constexpr int kHistBuckets = 8;

/// Point-in-time copy of a rank registry: the rank SPCs (rollups included)
/// plus every histogram and per-CRI cell. Supports delta and merge so
/// benches can report per-phase numbers (Table II is the delta over the
/// timed loop).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> values{};
  /// Cells past the Counter block: the Hist buckets, then one block per
  /// CRI label (CriMetric cells, then CriHist buckets).
  std::vector<std::uint64_t> cells;

  std::uint64_t get(Counter c) const noexcept { return values[static_cast<int>(c)]; }
  /// 0 for a label this snapshot does not carry.
  std::uint64_t get(CriMetric m, int cri) const noexcept;
  std::array<std::uint64_t, kBatchHistBuckets> hist(CriHist h, int cri) const noexcept;
  std::array<std::uint64_t, kHistBuckets> hist(Hist h) const noexcept;

  /// Cell-wise difference (this - earlier); high-water counters keep the
  /// later (max-style) value since they are marks, not sums.
  Snapshot delta_since(const Snapshot& earlier) const;

  /// Sum (max for high-water counters) across engines — e.g. both ranks;
  /// per-CRI cells add up label by label.
  void merge(const Snapshot& other);

  std::string to_string() const;
};

/// The per-thread shard store behind every counter in the engine: `width`
/// uint64 cells per shard, one shard per thread slot plus a shared overflow
/// shard for threads past the slot registry. Owners write their cells with
/// plain relaxed load+store (no lock prefix); overflow writers use real
/// RMWs. Reads sum the shards (max for high-water cells), so they are
/// O(threads) — fine, they are off-path.
///
/// rebase() is a reset that never writes a cell: it records the current
/// totals as a baseline that rebased reads subtract, so adds racing it land
/// in one epoch or the other, never nowhere. High-water cells are lifetime
/// maxima and ignore the baseline.
class ShardStore {
 public:
  /// `is_max(i)` marks high-water cells (nullptr: all cells are sums).
  explicit ShardStore(std::size_t width, bool (*is_max)(std::size_t) = nullptr);
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;
  ~ShardStore();

  /// The calling thread's shard, resolved once: hot code that issues
  /// several updates back-to-back skips the per-call slot lookup. Must not
  /// outlive the statement block it was taken in.
  class Writer {
   public:
    void add(std::size_t i, std::uint64_t n) noexcept {
      auto& cell = cells_[i];
      if (shared_) {
        cell.fetch_add(n, std::memory_order_relaxed);
        return;
      }
      // Single-writer cell: a relaxed load+store is a data-race-free
      // increment and avoids the lock prefix a fetch_add would pay.
      cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }

    void update_max(std::size_t i, std::uint64_t candidate) noexcept {
      auto& cell = cells_[i];
      // lint: allow(relaxed-sync) single-writer cell (CAS loop below covers shared)
      std::uint64_t cur = cell.load(std::memory_order_relaxed);
      if (!shared_) {
        if (candidate > cur) cell.store(candidate, std::memory_order_relaxed);
        return;
      }
      while (candidate > cur &&
             !cell.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
      }
    }

   private:
    friend class ShardStore;
    Writer(std::atomic<std::uint64_t>* cells, bool shared) noexcept
        : cells_(cells), shared_(shared) {}
    std::atomic<std::uint64_t>* cells_;
    bool shared_;  ///< overflow shard: concurrent writers, RMWs required
  };

  Writer writer() noexcept {
    const int slot = common::this_thread_slot();
    if (slot == common::kNoThreadSlot) return Writer(shard(common::kMaxThreadSlots), true);
    return Writer(shard(static_cast<std::size_t>(slot)), false);
  }

  /// Every cell, summed (maxed) over shards; `rebased` subtracts the
  /// baseline from sum cells.
  std::vector<std::uint64_t> read_all(bool rebased) const;

  /// Record the current totals as the baseline (see class comment).
  void rebase() noexcept;

 private:
  /// The shard for slot `idx`, allocated on first touch. Shards outlive
  /// their thread: a recycled slot simply adopts the shard (and its totals)
  /// — the slot registry's lock orders the handover.
  std::atomic<std::uint64_t>* shard(std::size_t idx) noexcept {
    std::atomic<std::uint64_t>* s = shards_[idx].load(std::memory_order_acquire);
    if (s != nullptr) return s;
    return slow_shard(idx);
  }
  /// Allocates the slot's shard; out of line to keep writer() small.
  std::atomic<std::uint64_t>* slow_shard(std::size_t idx) noexcept;

  const std::size_t width_;
  /// Cells allocated per shard: width_ rounded up to whole cache lines, so
  /// no two shards share a line.
  const std::size_t padded_;
  std::vector<std::uint8_t> is_max_;
  std::array<std::atomic<std::atomic<std::uint64_t>*>, common::kMaxThreadSlots + 1> shards_{};
  /// Reset baseline, subtracted from sum cells on rebased reads. Written
  /// only by rebase() (rare, off-path).
  std::unique_ptr<std::atomic<std::uint64_t>[]> base_;
};

/// A rank's registry: the SPCs, the unlabelled histograms and one block of
/// per-CRI cells per instance, shared by all threads of the rank.
///
/// reset() is a *rebase* (see ShardStore): adds racing a reset are never
/// lost, high-water counters are not lowered, and lifetime_snapshot() keeps
/// the reset-immune totals. Benches that need per-phase numbers should
/// prefer delta_since.
class CounterSet {
 public:
  /// `cri_labels`: instances whose per-CRI cells this set carries (a
  /// rank's pool size; 0 for sets that only count rank SPCs).
  explicit CounterSet(int cri_labels = 0);
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  int cri_labels() const noexcept { return cri_labels_; }

  /// The calling thread's shard, resolved once (the matching engine does up
  /// to five updates per envelope). Same lifetime rule as ShardStore::Writer.
  class Cursor {
   public:
    void add(Counter c, std::uint64_t n = 1) noexcept { w_.add(index(c), n); }
    void update_max(Counter c, std::uint64_t candidate) noexcept {
      w_.update_max(index(c), candidate);
    }
    void add(CriMetric m, int cri, std::uint64_t n = 1) noexcept { w_.add(index(m, cri), n); }
    /// One batch of `n` >= 1 items in `cri`'s histogram `h`.
    void record(CriHist h, int cri, std::size_t n) noexcept {
      w_.add(index(h, cri) + static_cast<std::size_t>(log2_bucket(n - 1, kBatchHistBuckets)),
             1);
    }

   private:
    friend class CounterSet;
    explicit Cursor(ShardStore::Writer w) noexcept : w_(w) {}
    ShardStore::Writer w_;
  };

  Cursor cursor() noexcept { return Cursor(store_.writer()); }

  void add(Counter c, std::uint64_t n = 1) noexcept { cursor().add(c, n); }
  /// Update a high-water-mark counter to max(current, candidate).
  void update_max(Counter c, std::uint64_t candidate) noexcept {
    cursor().update_max(c, candidate);
  }
  /// `cri` must be below cri_labels().
  void add(CriMetric m, int cri, std::uint64_t n = 1) noexcept { cursor().add(m, cri, n); }
  void record(CriHist h, int cri, std::size_t n) noexcept { cursor().record(h, cri, n); }
  void record(Hist h, std::uint64_t v) noexcept {
    store_.writer().add(kNumCounters + static_cast<std::size_t>(h) * kHistBuckets +
                            static_cast<std::size_t>(log2_bucket(v, kHistBuckets)),
                        1);
  }

  /// Current value of one rank SPC (rollups included, minus the baseline).
  std::uint64_t get(Counter c) const { return snapshot().get(c); }

  Snapshot snapshot() const;

  /// Reset-immune lifetime totals: the raw shard sums, ignoring the reset
  /// baseline. Monotone non-decreasing, so delta_since over lifetime
  /// snapshots gives exact per-phase accounting no matter who calls
  /// reset() in between — benches should prefer this over reset().
  Snapshot lifetime_snapshot() const;

  /// Rebase all sum cells to zero (see class comment).
  void reset() noexcept { store_.rebase(); }

 private:
  static constexpr std::size_t kFixedCells =
      kNumCounters + static_cast<std::size_t>(Hist::kCount) * kHistBuckets;
  static constexpr std::size_t kCriCells =
      kNumCriMetrics + static_cast<std::size_t>(CriHist::kCount) * kBatchHistBuckets;

  static constexpr std::size_t index(Counter c) noexcept { return static_cast<std::size_t>(c); }
  static constexpr std::size_t index(CriMetric m, int cri) noexcept {
    return kFixedCells + static_cast<std::size_t>(cri) * kCriCells + static_cast<std::size_t>(m);
  }
  static constexpr std::size_t index(CriHist h, int cri) noexcept {
    return index(CriMetric::kCount, cri) + static_cast<std::size_t>(h) * kBatchHistBuckets;
  }
  Snapshot make_snapshot(bool rebased) const;

  const int cri_labels_;
  ShardStore store_;

  friend struct Snapshot;
};

}  // namespace fairmpi::spc
