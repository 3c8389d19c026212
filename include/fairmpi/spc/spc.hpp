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

/// The rank SPCs, one row each: X(name, kind, doc). The enumerator is
/// k<name> and counter_name() returns "<name>"; rows are never reordered
/// (benches and exports read counters by name, snapshots by position).
/// kind is Sum, or HighWater for a max-style mark that merges and resets
/// differently. MatchTimeNs is a sampled estimate: unbiased, but a picked
/// section that is preempted counts 64 times over, so short or
/// oversubscribed runs read noisy.
#define FAIRMPI_SPC_COUNTERS(X)                                                              \
  X(MessagesSent, Sum, "completed two-sided sends")                                          \
  X(MessagesReceived, Sum, "matched + delivered two-sided receives")                         \
  X(BytesSent, Sum, "payload bytes injected")                                                \
  X(BytesReceived, Sum, "payload bytes delivered")                                           \
  X(UnexpectedMessages, Sum, "arrived before a matching receive was posted")                 \
  X(OutOfSequence, Sum, "arrived with seq != expected (buffered)")                           \
  X(MatchTimeNs, Sum, "time holding a matching lock, 1 section in 64 sampled, scaled by 64") \
  X(MatchAttempts, Sum, "entries into the matching critical section")                        \
  X(PostedQueueDepth, Sum, "posted receives inspected by arrival searches")                  \
  X(UnexpectedQueueDepth, Sum, "unexpected messages inspected by post searches")             \
  X(OosBufferPeak, HighWater, "high-water mark of the reorder buffer")                       \
  X(SendBackpressure, Sum, "injection retries on a full RX ring (the fabric's EAGAIN)")      \
  X(SendAdmissionWaits, Sum, "send wait ticks at the window, tracker or pool cap (§5h)")     \
  X(ProgressCalls, Sum, "entries into the progress engine")                                  \
  X(ProgressCompletions, Sum, "completions harvested by progress")                           \
  X(InstanceTrylockFail, Sum, "failed try_lock on a CRI (Alg. 2 skip)")                      \
  X(RmaPuts, Sum, "one-sided put operations")                                                \
  X(RmaGets, Sum, "one-sided get operations")                                                \
  X(RmaAccumulates, Sum, "one-sided accumulate operations")                                  \
  X(RmaFlushes, Sum, "passive-target flush operations")                                      \
  X(HeaderDrops, Sum, "inbound packets failing structural validation")                       \
  X(CsumDrops, Sum, "inbound packets failing checksum verification")                         \
  X(DupDiscards, Sum, "duplicate deliveries discarded (exactly-once)")                       \
  X(Retransmits, Sum, "packets re-injected after an ack timeout")                            \
  X(AcksSent, Sum, "reliability ack packets injected (one per run, not per packet acked)")   \
  X(AcksReceived, Sum, "well-formed reliability ack packets processed")                      \
  X(ReliabilityErrors, Sum, "typed errors surfaced (budget/retry exhaustion)")               \
  X(SubmitQueued, Sum, "injections routed through a submission ring")                        \
  X(SubmitRingFull, Sum, "submission attempts bounced off a full ring")                      \
  X(SubmitCasRetries, Sum, "submission-ring tail-CAS collisions")                            \
  X(RmaFlushAllBusy, Sum, "RMA flush passes where a held lock refused a CRI with work")      \
  X(FtHeartbeatsSent, Sum, "ft liveness probes injected on idle links")                      \
  X(FtHeartbeatsReceived, Sum, "ft liveness probes consumed")                                \
  X(FtSuspects, Sum, "peers that entered the suspect state")                                 \
  X(FtDeaths, Sum, "peers confirmed dead")                                                   \
  X(FtPeerFailedOps, Sum, "operations completed with kPeerFailed")                           \
  X(FtRevokedOps, Sum, "operations refused/failed on a revoked comm")                        \
  X(OverloadPausedPackets, Sum, "packets held (deferred) at the unexpected cap")             \
  X(CancelledOps, Sum, "requests settled kCancelled")                                        \
  X(DeadlineExceededOps, Sum, "requests settled kDeadlineExceeded")                          \
  X(QuiesceTimeouts, Sum, "quiesce calls that gave up with backlog")                         \
  X(CollOps, Sum, "collective operations entered (any algorithm)")                           \
  X(CollRounds, Sum, "tree/ring rounds executed across collectives")                         \
  X(CollSegments, Sum, "pipeline segments sent (segmented algorithms)")                      \
  X(CollLaneAcquires, Sum, "collective tag lanes acquired")                                  \
  X(CollLaneWaits, Sum, "lane acquisitions that had to spin for a free lane")                \
  X(CollBinomialOps, Sum, "collectives run with the binomial-tree algorithm")                \
  X(CollRsagOps, Sum, "allreduces run as reduce-scatter + allgather")                        \
  X(CollPipelinedOps, Sum, "collectives run with pipelined segmentation")                    \
  X(ReservedTagRejects, Sum, "user ops refused for a tag in the reserved block")

enum class Counter : int {
#define FAIRMPI_SPC_ENUM(name, kind, doc) k##name,
  FAIRMPI_SPC_COUNTERS(FAIRMPI_SPC_ENUM)
#undef FAIRMPI_SPC_ENUM
  kCount
};

constexpr int kNumCounters = static_cast<int>(Counter::kCount);

enum class CounterKind : std::uint8_t { kSum, kHighWater };

struct CounterInfo {
  const char* name;
  CounterKind kind;
  const char* doc;
};

inline constexpr CounterInfo kCounters[] = {
#define FAIRMPI_SPC_INFO(name, kind, doc) {#name, CounterKind::k##kind, doc},
    FAIRMPI_SPC_COUNTERS(FAIRMPI_SPC_INFO)
#undef FAIRMPI_SPC_INFO
};

/// Counter name ("OutOfSequence", ...); "Unknown" out of range.
constexpr const char* counter_name(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kCounters) ? kCounters[i].name : "Unknown";
}

/// True for max-style (high-water) counters, which merge/reset differently
/// from sums.
constexpr bool is_high_water(Counter c) noexcept {
  return kCounters[static_cast<std::size_t>(c)].kind == CounterKind::kHighWater;
}

/// Bucket of a log2 histogram with `buckets` cells: 0 lands in bucket 0,
/// [2^(i-1), 2^i) in bucket i, and the last bucket overflows.
constexpr int log2_bucket(std::uint64_t v, int buckets) noexcept {
  const int b = static_cast<int>(std::bit_width(v));
  return b < buckets ? b : buckets - 1;
}

/// Per-CRI cells of a rank's registry, labelled by instance id, one row
/// each: X(name, export key, rollup, doc). Metrics marked "obs" are
/// recorded only while obs::enabled(); the others are the single write
/// behind an always-on rank SPC, their rollup (Count: none). The rank
/// total reads the Counter's own cell plus every label's cell, so
/// InstanceTrylockFail still counts sweep, serial-gate and RMA misses.
#define FAIRMPI_SPC_CRI_METRICS(X)                                                                 \
  X(Injections, "injections", Count, "packets / RMA CQ events handed to the instance (obs)")       \
  X(PacketsDrained, "packets_drained", Count, "packets popped by progress visits (obs)")           \
  X(CompletionsDrained, "completions_drained", Count, "CQ events popped by progress visits (obs)") \
  X(OwnTrylockMisses, "own_trylock_misses", InstanceTrylockFail,                                   \
    "Alg. 2 try_lock misses on the thread's own instance, work word set")                          \
  X(OrphanSweeps, "orphan_sweeps", Count, "non-empty visits by a non-owner thread (obs)")          \
  X(DrainVisits, "drain_visits", Count,                                                            \
    "visits that passed the work-word gate, empty or not (obs)")                                   \
  X(SubmitClaimed, "submit_claimed", SubmitQueued, "submission-ring slots claimed by producers")   \
  X(SubmitCasRetries, "submit_cas_retries", SubmitCasRetries, "producer tail-CAS collisions")

enum class CriMetric : int {
#define FAIRMPI_SPC_ENUM(name, key, rollup, doc) k##name,
  FAIRMPI_SPC_CRI_METRICS(FAIRMPI_SPC_ENUM)
#undef FAIRMPI_SPC_ENUM
  kCount
};
inline constexpr int kNumCriMetrics = static_cast<int>(CriMetric::kCount);

struct CriMetricInfo {
  const char* key;  ///< its cell's key in a dump_observability() instance row
  Counter rollup;
  const char* doc;
};

inline constexpr CriMetricInfo kCriMetrics[] = {
#define FAIRMPI_SPC_INFO(name, key, rollup, doc) {key, Counter::k##rollup, doc},
    FAIRMPI_SPC_CRI_METRICS(FAIRMPI_SPC_INFO)
#undef FAIRMPI_SPC_INFO
};

/// The rank SPC a per-CRI metric sums into (Counter::kCount: none).
constexpr Counter rollup(CriMetric m) noexcept {
  return kCriMetrics[static_cast<std::size_t>(m)].rollup;
}

/// Per-CRI batch-size histograms (obs). A batch of n >= 1 lands in
/// log2_bucket(n - 1): 1 | 2 | 3-4 | 5-8 | 9-16 | 17-32 | 33+.
enum class CriHist : int { kDrainBatch = 0, kSubmitFlush, kCount };
/// Each CriHist's key in a dump_observability() instance row.
inline constexpr const char* kCriHistKeys[] = {"drain_hist", "submit_flush_hist"};
static_assert(std::size(kCriHistKeys) == static_cast<std::size_t>(CriHist::kCount));
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
