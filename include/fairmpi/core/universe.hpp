// The public faces of fairmpi: Universe, Rank, Communicator.
//
// A Universe is a simulated MPI job living inside one OS process: N ranks,
// each with its own NIC (CRI pool), progress engine, SPC counters and
// communicator table, connected by the in-process fabric. User threads call
// into a Rank concurrently — the engine is MPI_THREAD_MULTIPLE by
// construction, and which of the paper's designs protects it is chosen by
// the Config.
//
// Quickstart (examples/quickstart.cpp):
//   fairmpi::Config cfg;                  // 2 ranks, 1 CRI, serial progress
//   fairmpi::Universe uni(cfg);
//   auto w0 = uni.rank(0).world(), w1 = uni.rank(1).world();
//   // thread A:                         // thread B:
//   w0.send(1, /*tag=*/7, "hi", 3);      char buf[8]; w1.recv(0, 7, buf, 8);
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/config.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/cri/cri.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/ft/failure_detector.hpp"
#include "fairmpi/p2p/comm_state.hpp"
#include "fairmpi/p2p/reliability.hpp"
#include "fairmpi/p2p/rendezvous.hpp"
#include "fairmpi/p2p/request.hpp"
#include "fairmpi/progress/progress.hpp"
#include "fairmpi/progress/watchdog.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi {

class Universe;
class Rank;
namespace rma {
class Window;  // befriended by Rank for typed RMA failure reporting
}  // namespace rma

using p2p::CommId;
using p2p::kWorldComm;
using p2p::Request;
using p2p::Status;
using p2p::kAnySource;
using p2p::kAnyTag;

/// Lightweight handle pairing a rank with a communicator id. Copyable;
/// all operations forward to the owning Rank.
///
/// Rank translation: communicators built from a group (Universe::shrink /
/// create_communicator(members)) expose *local* ranks — rank()/size(),
/// dst/src arguments and returned Status.source are all group-local; the
/// translation to the universe's global ids happens here, at the boundary.
/// World-spanning communicators (every one before PR 8) translate
/// identically (local == global).
class Communicator {
 public:
  Communicator(Rank& rank, CommId id) noexcept : rank_(&rank), id_(id) {}

  /// This endpoint's rank id within the communicator (group-local).
  int rank() const noexcept;
  /// Number of ranks in the communicator (group size; == universe size for
  /// world-spanning communicators, the paper's only shape).
  int size() const noexcept;
  CommId id() const noexcept { return id_; }

  /// ft: true once Universe::revoke ran on this communicator — every
  /// subsequent operation fails fast with kCommRevoked.
  bool revoked() const noexcept;

  /// Nonblocking ops take an optional absolute deadline (engine now_ns
  /// clock; 0 = none, DESIGN.md §5h): the request settles typed
  /// kDeadlineExceeded once the deadline passes without completion. The
  /// deadline must ride in here — not be attached after the fact — so it
  /// is set before the request becomes visible to the engine.
  ///
  /// Tags at or above p2p::kReservedTagBase belong to the engine
  /// (collective lanes, barrier rounds): posting one here settles the
  /// request typed kReservedTag instead of silently colliding with
  /// collective traffic. Engine internals bypass via the Rank-level ops.
  void isend(int dst, int tag, const void* buf, std::size_t n, Request& req,
             std::uint64_t deadline_ns = 0);
  void irecv(int src, int tag, void* buf, std::size_t capacity, Request& req,
             std::uint64_t deadline_ns = 0);
  void send(int dst, int tag, const void* buf, std::size_t n);
  Status recv(int src, int tag, void* buf, std::size_t capacity);

  /// Typed-outcome variants (ft): same blocking semantics, but a peer
  /// failure or a revocation surfaces as the returned code (kPeerFailed /
  /// kCommRevoked / kRetryExhausted / ...) instead of only via the error
  /// sink. The unchecked wrappers above forward here and discard the code.
  common::ErrorCode send_checked(int dst, int tag, const void* buf, std::size_t n);
  common::ErrorCode recv_checked(int src, int tag, void* buf, std::size_t capacity,
                                 Status* status = nullptr);

  /// Dissemination barrier over all ranks of the communicator. Every rank
  /// must have (at least) one thread inside barrier() for it to complete.
  void barrier();
  /// Barrier with a typed outcome: returns kOk when every round paired, or
  /// the first failure (kPeerFailed when a partner died, kCommRevoked when
  /// the communicator was revoked mid-barrier) — instead of hanging, the
  /// failure mode this PR exists to remove (DESIGN.md §5g).
  common::ErrorCode barrier_checked();

  /// The endpoint Rank behind this handle — substrate access (the coll
  /// subsystem routes its reserved-tag traffic through the Rank-level ops,
  /// which the reserved-tag guard above does not apply to). No new power:
  /// Universe::rank() already hands out every Rank.
  Rank& owner() const noexcept { return *rank_; }

  /// Group-local -> global translation (identity on world-spanning comms).
  /// Public for substrates (coll) that address Rank-level ops, which speak
  /// global ids.
  int global_of(int local) const noexcept;

 private:
  /// The reserved-tag guard body: settles `req` typed kReservedTag and
  /// reports to the error sink when `tag` is inside the engine block.
  /// Returns true when the op was rejected.
  bool reject_reserved_tag(Request& req, int tag, int peer, bool is_send) const;

  Rank* rank_;
  CommId id_;
};

/// One simulated MPI process.
class Rank final : public progress::PacketSink,
                   public p2p::RendezvousHook,
                   public progress::StallProbe,
                   public p2p::CancelScope {
 public:
  ~Rank() override;
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const noexcept { return id_; }
  Universe& universe() noexcept { return *uni_; }

  Communicator world() noexcept { return Communicator(*this, kWorldComm); }
  Communicator comm(CommId id) noexcept { return Communicator(*this, id); }

  // --- two-sided ---
  /// deadline_ns: optional absolute per-op deadline (0 = none; §5h). Must
  /// be passed at submission so it is armed before the request is posted.
  void isend(CommId comm, int dst, int tag, const void* buf, std::size_t n, Request& req,
             std::uint64_t deadline_ns = 0);
  void irecv(CommId comm, int src, int tag, void* buf, std::size_t capacity, Request& req,
             std::uint64_t deadline_ns = 0);
  void send(CommId comm, int dst, int tag, const void* buf, std::size_t n);
  Status recv(CommId comm, int src, int tag, void* buf, std::size_t capacity);

  /// Spin (progressing) until the request completes.
  void wait(Request& req);
  /// Progress once; true when the request is complete.
  bool test(Request& req);
  void wait_all(Request* const* reqs, std::size_t n);
  /// Spin until any request completes; returns its index.
  std::size_t wait_any(Request* const* reqs, std::size_t n);

  /// Non-destructive check for a matchable incoming message (MPI_Iprobe):
  /// progresses once, then queries the unexpected queue.
  bool iprobe(CommId comm, int src, int tag, Status* status = nullptr);
  /// Blocking probe: progress until a matching message is available.
  Status probe(CommId comm, int src, int tag);

  /// One explicit progress call (normally implicit in wait/test).
  std::size_t progress();

  // --- internals exposed for substrates, benches and tests ---
  spc::CounterSet& counters() noexcept { return spc_; }
  trace::Tracer& tracer() noexcept { return tracer_; }
  cri::CriPool& pool() noexcept { return pool_; }
  progress::ProgressEngine& engine() noexcept { return engine_; }
  p2p::CommState& comm_state(CommId id);

  /// The ack/retransmit tracker (null unless Config::reliable) and the
  /// stall watchdog (null when watchdog_interval_ns is ~0) — test hooks.
  p2p::ReliabilityTracker* reliability() noexcept { return tracker_.get(); }
  progress::Watchdog* watchdog() noexcept { return watchdog_.get(); }

  /// The overload governor (DESIGN.md §5h): degradation level, paused-peer
  /// count, resolved caps. Always present; with no caps configured it is
  /// disabled and the hot path pays one branch.
  overload::Governor& governor() noexcept { return governor_; }
  const overload::Governor& governor() const noexcept { return governor_; }

  /// The rank-failure detector (null unless Config::ft_enabled).
  ft::FailureDetector* failure_detector() noexcept { return ft_.get(); }
  /// True once the detector confirmed `peer` dead. False with ft off.
  bool peer_failed(int peer) const noexcept {
    return ft_ != nullptr && ft_->is_dead(peer);
  }

  /// Install the typed-error callback (retry exhaustion, send budget, stall
  /// escalation). Not thread-safe against in-flight traffic: install before
  /// communication starts.
  void set_error_sink(common::ErrorSink sink, void* user) noexcept;

  // PacketSink. A batch's reliability notices go out together right after
  // it; only those a full ring refuses, or all of a `locked` batch's, wait
  // in the rank's ack queue (DESIGN.md §5c "Per-drain acks").
  std::size_t handle_packets(fabric::Packet* pkts, std::size_t n, bool locked) override;
  std::size_t handle_completion(const fabric::Completion& c) override;

  // RendezvousHook (called by the matching engine, match lock held)
  void on_rts_matched(p2p::Request* req, const fabric::Packet& rts) override;

  // StallProbe (called by the watchdog, its sweep lock held): flag
  // rendezvous transfers pending since before `horizon_ns`.
  std::size_t scan_stalled(std::uint64_t now_ns, std::uint64_t horizon_ns) override;

  // p2p::CancelScope for requests owned by the rendezvous registries
  // (posted receives route through their MatchEngine instead): tombstones
  // the transfer under the registry lock and settles the request
  // kCancelled, so a cancel can never race a completing fragment drain.
  bool cancel_request(p2p::Request* req) override;

 private:
  friend class Universe;
  friend class Communicator;  ///< report_error for the reserved-tag guard
  friend class rma::Window;  ///< report_error for ft fail-fast RMA ops
  Rank(Universe& uni, int id);
  void install_comm(CommId id, std::vector<int> members = {});

  // --- progress service step (DESIGN.md "Progress service step") ---
  /// The periodic services, run by one thread at a time once the gate
  /// (service_due_, or the universe's retransmit due time) has passed:
  /// deadline expiry, the cooperative retransmit sweep, and the watchdog,
  /// ft detector and ladder each on its own cadence. Raises the gate
  /// before it scans and lowers it to the earliest next due time after.
  void service(std::uint64_t now);
  /// Lower the service gate to `due` after publishing the work that is
  /// due then (the fence pairs with the one in service()).
  void arm_service(std::uint64_t due) noexcept;

  // --- ft layer (see ft/failure_detector.hpp; DESIGN.md §5g) ---
  /// One detection sweep from service(): classify under the detector lock,
  /// then (lock-free) inject heartbeats toward idle links and run failure
  /// propagation for newly confirmed deaths.
  void ft_poll(std::uint64_t now);
  /// Single-attempt header-only liveness probe (never tracked, never acked).
  void send_heartbeat(int dst);
  /// Failure propagation for one confirmed-dead peer: fail tracked sends,
  /// purge posted receives on every installed communicator, fail in-flight
  /// rendezvous transfers, report one typed error.
  void on_peer_dead(int peer);
  /// Rendezvous part of the propagation (rndv registry purge).
  void fail_rendezvous_peer(int peer);

  // --- rendezvous protocol (see p2p/rendezvous.hpp) ---
  void rndv_isend(CommId comm, int dst, int tag, const void* buf, std::size_t n,
                  Request& req, std::uint64_t deadline_ns);
  std::size_t handle_rndv_ack(const fabric::Packet& pkt);
  std::size_t handle_rndv_data(const fabric::Packet& pkt);
  /// Execute deferred protocol sends; called from progress() with no
  /// engine lock held. Returns on one relaxed load when nothing is queued.
  void drain_control();
  /// Inject one protocol packet, retrying on backpressure (bounded by the
  /// send budget when reliable; tracked for retransmit unless it is an ack).
  void inject_control(int dst, fabric::Packet&& pkt);

  // --- reliability layer (see p2p/reliability.hpp) ---
  /// One drain's reliability notices (handle_packets): a packet yields at
  /// most one, so a drain batch never fills it.
  using AckBatch = p2p::NoticeBatch<progress::ProgressEngine::kMaxDrainBatch>;
  /// Structure, checksum (reliable ranks) and ft liveness note for one
  /// inbound packet; false when it was counted and dropped.
  bool validate_inbound(const fabric::Packet& pkt);
  /// Match a run of validated envelopes for one communicator under one
  /// hold of its match lock; on reliable ranks each admission verdict's
  /// notice joins `acks`, in run order.
  std::size_t match_run(fabric::Packet* pkts, std::size_t n, AckBatch& acks);
  /// Dispatch one validated packet that is not an envelope; its
  /// reliability notice, if any, joins `acks`.
  std::size_t receive(fabric::Packet&& pkt, AckBatch& acks);
  /// One injection attempt with no tracking and no backpressure loop: used
  /// for retransmits and acks, whose loss the protocol already absorbs.
  bool inject_raw(int dst, fabric::Packet&& pkt);
  /// Answer `hdr`'s packet with an ack (kSendPacketAck), an overload NACK
  /// (kSendPacketNack) or a deferral notice (kSendPacketDefer, DESIGN.md
  /// §5h) echoing its key. An ack may extend its stream's run in `acks`
  /// (p2p::queue_ack).
  static void answer(AckBatch& acks, const fabric::WireHeader& hdr,
                     p2p::ControlMsg::Kind kind);
  /// Put `msgs` on the rank's ack queue, for flush_acks to send.
  void enqueue_acks(const p2p::ControlMsg* msgs, std::size_t n);
  /// Inject one notice as its kAck/kNack/kDefer packet (single attempt);
  /// false when the peer's lane is full.
  bool send_notice(const p2p::ControlMsg& msg);
  /// Process an inbound NACK: retire the named tracker entry, surface the
  /// failure typed kReceiverOverloaded, and fail the owning rendezvous
  /// send when the NACKed packet was an RTS.
  void handle_nack(const fabric::WireHeader& hdr);

  // --- overload control & deadlines (DESIGN.md §5h) ---
  /// Expire posted receives (per match engine) and tombstone + fail
  /// rendezvous transfers past their deadline; returns the earliest
  /// surviving deadline.
  std::uint64_t expire_deadlines(std::uint64_t now);
  /// One degradation-ladder sample over the capped resources.
  void sample_ladder();
  /// Transmit deferred acks, one packet per queued run (single injection
  /// attempt each; a full ring stops the flush — the peer retransmits and
  /// we re-ack). Kept separate
  /// from drain_control so every backpressure wait loop can call it: acks
  /// must keep flowing while a sender blocks, or two flooding ranks
  /// deadlock waiting for each other's acks. Returns on one relaxed load
  /// when nothing is queued.
  void flush_acks();
  /// Retransmit expired in-flight packets; fail retry-exhausted ones typed.
  /// Returns the tracker's earliest remaining deadline.
  std::uint64_t reliability_sweep(std::uint64_t now);
  /// Report a typed error through the installed sink (if any).
  void report_error(const common::Error& err) noexcept;

  Universe* uni_;
  const int id_;
  spc::CounterSet spc_;
  trace::Tracer tracer_;
  cri::CriPool pool_;
  progress::ProgressEngine engine_;
  std::vector<std::atomic<p2p::CommState*>> comms_;

  /// Overload control block (§5h): constructed from the Config caps;
  /// atomics-only, so it takes no rank in the lock hierarchy.
  overload::Governor governor_;
  /// The service gate: no service is due before this time (kNever = none).
  /// Deadline arms lower it; only service() raises it. 0 runs the first
  /// call's services, which schedule themselves from there.
  std::atomic<std::uint64_t> service_due_{0};
  /// Single-runner guard for service(); the cadence times below are
  /// written only by the thread holding it.
  std::atomic<bool> servicing_{false};
  std::uint64_t watchdog_due_ = 0;
  std::uint64_t ft_due_ = 0;
  std::uint64_t ladder_due_ = 0;

  std::unique_ptr<p2p::ReliabilityTracker> tracker_;  ///< Config::reliable only
  std::unique_ptr<progress::Watchdog> watchdog_;
  std::unique_ptr<ft::FailureDetector> ft_;  ///< Config::ft_enabled only
  common::ErrorSink err_sink_ = nullptr;
  void* err_user_ = nullptr;
  /// ft_poll scratch, single-writer under servicing_: no per-poll allocation.
  std::vector<int> ft_probes_;
  std::vector<int> ft_newly_dead_;

  // Rendezvous registries and the deferred-send queue. A plain mutex-style
  // spinlock is fine here: traffic is one entry per large message, not per
  // fragment-byte. Both rank above match: they are acquired from
  // on_rts_matched with the match lock (and a CRI lock) held.
  RankedLock<Spinlock> rndv_lock_{LockRank::kRndvState, "rank.rndv-state"};
  std::uint64_t next_cookie_ FAIRMPI_GUARDED_BY(rndv_lock_) = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<p2p::RndvSendState>> rndv_sends_
      FAIRMPI_GUARDED_BY(rndv_lock_);
  std::unordered_map<std::uint64_t, std::unique_ptr<p2p::RndvRecvState>> rndv_recvs_
      FAIRMPI_GUARDED_BY(rndv_lock_);
  RankedLock<Spinlock> control_lock_{LockRank::kRndvControl, "rank.rndv-control"};
  std::deque<p2p::ControlMsg> control_ FAIRMPI_GUARDED_BY(control_lock_);
  /// Reliability acks ride their own queue (same lock) so flush_acks can
  /// run from wait loops without reentering the full control drain.
  std::deque<p2p::ControlMsg> acks_ FAIRMPI_GUARDED_BY(control_lock_);
  /// "Queue may be non-empty" flags, written only under control_lock_: an
  /// idle progress() reads them instead of taking the lock.
  std::atomic<bool> control_pending_{false};
  std::atomic<bool> acks_pending_{false};
};

class Universe {
 public:
  explicit Universe(Config cfg);
  ~Universe();
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  int num_ranks() const noexcept { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  const Config& config() const noexcept { return cfg_; }
  fabric::Fabric& fabric() noexcept { return fabric_; }

  /// Create a new communicator spanning all ranks (a dup of world). Safe to
  /// call from any one thread; the id is usable on every rank once this
  /// returns. Models MPI_Comm_dup for the paper's comm-per-pair runs.
  CommId create_communicator();

  /// Create a communicator over an explicit group: `members` lists global
  /// rank ids in local-rank order (strictly increasing, non-empty). The
  /// building block of shrink(); also usable directly (MPI_Comm_create).
  CommId create_communicator(std::vector<int> members);

  // --- ft: communicator-level recovery (ULFM revoke/shrink; DESIGN.md §5g) ---

  /// Revoke `id` on every rank: all posted receives fail with kCommRevoked
  /// and every subsequent operation on the communicator fails fast. The
  /// escape hatch from collectives wedged by a rank failure — one rank
  /// observes kPeerFailed, revokes, and every other rank's blocked
  /// operation unblocks typed instead of hanging.
  void revoke(CommId id);

  /// Rebuild after failure: revoke `id` (idempotent), drain in-flight
  /// traffic among survivors (quiesce), and return a new communicator
  /// whose group is survivors() — ranks not confirmed dead by any live
  /// rank's detector nor killed in the injector. The returned communicator
  /// renumbers survivors densely (Communicator::rank()/size() are
  /// group-local).
  CommId shrink(CommId id);

  /// Progress every surviving rank until no rank completes further work
  /// and every reliability tracker is empty, or `timeout_ns` elapses.
  /// Returns true when quiescent. Call from exactly one thread with no
  /// other application threads inside blocking fairmpi calls.
  bool quiesce(std::uint64_t timeout_ns);

  /// Global ranks currently believed alive: not killed in the fault
  /// injector and not confirmed dead by any live rank's failure detector.
  std::vector<int> survivors() const;

  /// Sum of all ranks' SPC counters (high-water counters take the max).
  spc::Snapshot aggregate_counters() const;

  // --- observability (defined in src/obs/export.cpp) ---

  /// Merge every rank's trace ring into Chrome trace-event JSON
  /// (chrome://tracing / https://ui.perfetto.dev): one process per rank,
  /// one track per recording thread, one async lane per CRI (kCriDrain
  /// events). Trace-less runs produce a valid file with metadata only.
  void export_chrome_trace(std::ostream& os) const;

  /// JSON snapshot of the observability layer: per-class lock contention
  /// (process-global), per-rank/per-CRI utilization, and the aggregate
  /// SPCs. Rendered by tools/obs_report.py.
  void dump_observability(std::ostream& os) const;

 private:
  friend class Rank;
  /// Retransmit sweep over EVERY live rank's in-flight table once
  /// retransmit_due_ has passed, run from any rank's service step.
  /// Cooperative by design: a real NIC retransmits autonomously, so
  /// recovery must not depend on the victim rank's application threads
  /// still driving its progress loop (a sender that fire-and-forgets eager
  /// traffic and then blocks elsewhere would otherwise strand its own
  /// dropped packets forever).
  void sweep_reliability(std::uint64_t now) noexcept;

  Config cfg_;
  /// Earliest retransmit deadline across every rank's tracker (kNever =
  /// none). Trackers lower it; sweep_reliability raises it before it scans.
  std::atomic<std::uint64_t> retransmit_due_{kNever};
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::atomic<CommId> next_comm_{kWorldComm + 1};
  /// Serializes create_communicator: installs the new CommState on every
  /// rank before the id is published (comms_ slots themselves are atomics).
  RankedLock<Spinlock> comm_create_lock_{LockRank::kCommCreate, "universe.comm-create"};
};

}  // namespace fairmpi
