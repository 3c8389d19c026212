// Simulated network fabric.
//
// Substitution for InfiniBand EDR / Cray Aries (DESIGN.md §4): an in-process
// fabric that provides the *structural* resources the paper's CRI design
// replicates — per-context RX queues and completion queues — and the same
// arbitrary cross-context arrival order real networks exhibit.
//
// Topology model: every rank owns a NIC with `n` network contexts. Context
// `i` of rank A reaches rank B through B's RX ring `i mod n_B` — the analog
// of connecting one QP/endpoint per (context, peer) pair. A receiver
// progressing context `j` therefore only sees traffic injected through
// matching sender contexts; when senders spread over many contexts, messages
// from one (comm, peer) stream arrive interleaved across rings, which is
// precisely the out-of-sequence pressure §II-C describes.
//
// RX lane decomposition (DESIGN.md §5f): a context's RX queue is not one
// shared MPSC ring but an array of SPSC *lanes*, one per (src_rank,
// src_ctx) stream that routes here — the moral equivalent of one QP per
// endpoint pair in Zambre et al.'s scalable-endpoints design. Every
// production injection into lane (r, c) happens while holding source
// instance (r, c)'s lock (Endpoint::try_send callers go through
// CommResourceInstance::endpoint(), which is REQUIRES(lock_)), so each lane
// has exactly one producer at a time and enqueue needs NO atomic RMW — the
// ~10ns locked CAS the shared ring paid per packet is gone. The drain side
// sweeps lanes round-robin under the destination CRI lock, preserving the
// single-consumer discipline. Per-(src, ctx) FIFO is preserved (one stream
// = one lane); cross-stream interleaving was already arbitrary.
//
// Work word (DESIGN.md §5f): every publish into a context (RX lane push, CQ
// push, submission-ring publish) then rings the context's WorkWord, and a
// progress visit that finds it unset does not touch the instance at all.
//
// Capacity semantics: FabricParams::rx_ring_entries is the PER-LANE depth —
// a per-source credit window, as real NICs bound in-flight traffic per QP —
// so a slow stream backpressures its own sender without stealing credits
// from other streams.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/mpsc_ring.hpp"
#include "fairmpi/common/spsc_ring.hpp"
#include "fairmpi/fabric/faults.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::fabric {

/// Sizing knobs for the fabric.
struct FabricParams {
  /// Per-lane RX depth (per-source credit window). Kept at the old shared-
  /// ring depth on purpose: a shallower per-lane window regresses bursty
  /// single-stream workloads — on the 1-core host a sender thread can fill
  /// a 512-entry lane within one scheduling quantum, and the backpressured
  /// retries land with stale sequence numbers (measured: ~860k out-of-
  /// sequence arrivals and -30% incast message rate at 512 vs ~300 at
  /// 4096). The footprint now scales with lane count (lanes x entries x
  /// sizeof(Packet)); memory-constrained runs shrink it via
  /// FAIRMPI_RX_RING_ENTRIES.
  std::size_t rx_ring_entries = 4096;
  std::size_t cq_entries = 4096;       ///< per-context completion queue
};

/// Source-stream geometry a NIC needs to size its contexts' RX lanes.
struct RxLayout {
  int num_ranks = 1;
  int max_src_contexts = 1;  ///< max contexts on any rank's NIC
};

/// A completion event on a context's CQ. Two-sided eager sends complete at
/// injection (buffered semantics); the CQ carries completions for tracked
/// operations — RMA puts/gets and rendezvous fragments.
struct Completion {
  enum class Kind : std::uint8_t { kNone = 0, kRmaDone, kSendDone };
  Kind kind = Kind::kNone;
  void* cookie = nullptr;  ///< kRmaDone: rma::Window*; kSendDone: p2p request
};

/// A context's "may have work" word, alone on its cache line; the
/// lost-wakeup argument is DESIGN.md §5f "Work word". Producers ring()
/// after each publish, a drain take()s it under the instance lock before it
/// pops, and a visit that finds it unset skips the instance.
class WorkWord {
 public:
  /// Unconditional release store. Never test the word first: a producer
  /// that reads a stale 1 and skips its store strands its publish.
  void ring() noexcept { word_.store(1, std::memory_order_release); }
  /// The visit gate. A stale read costs one empty visit or delays one.
  bool rung() const noexcept {
    // lint: allow(relaxed-sync) gate only; take() under the lock is the acquire
    return word_.load(std::memory_order_relaxed) != 0;
  }
  bool take() noexcept { return word_.exchange(0, std::memory_order_acq_rel) != 0; }

 private:
  alignas(kCacheLine) std::atomic<std::uint32_t> word_{0};
};

/// A context's receive queue: SPSC lanes indexed by source stream, drained
/// round-robin by the single consumer (the thread holding the owning CRI's
/// lock). Producers must hold the *source* instance's lock — that lock is
/// what serializes each lane (see file header).
class RxQueue {
 public:
  RxQueue(const RxLayout& layout, int num_local_contexts, std::size_t entries_per_lane,
          WorkWord& work)
      : work_(&work),
        n_local_(num_local_contexts < 1 ? 1 : num_local_contexts),
        k_stride_((layout.max_src_contexts + n_local_ - 1) / n_local_ < 1
                      ? 1
                      : (layout.max_src_contexts + n_local_ - 1) / n_local_) {
    const int n = (layout.num_ranks < 1 ? 1 : layout.num_ranks) * k_stride_;
    lanes_.reserve(static_cast<std::size_t>(n));  // lint: allow(hotpath-alloc) ctor
    for (int i = 0; i < n; ++i) {
      lanes_.push_back(std::make_unique<SpscRing<Packet>>(entries_per_lane));
    }
  }

  /// Lane carrying stream (src_rank, src_ctx). Out-of-range streams (tests
  /// minting arbitrary headers) fold modulo the lane count — safe there
  /// because such pushes are single-threaded by construction.
  std::size_t lane_for(int src_rank, int src_ctx) const noexcept {
    const int k = src_ctx < n_local_ ? 0 : (src_ctx / n_local_) % k_stride_;
    const auto lane = static_cast<std::size_t>(src_rank) * static_cast<std::size_t>(k_stride_) +
                      static_cast<std::size_t>(k);
    return lane < lanes_.size() ? lane : lane % lanes_.size();
  }

  /// Enqueue on a specific lane and ring the context's work word; false
  /// when that lane's credits are spent. Caller must be the lane's
  /// (serialized) producer.
  bool try_push_lane(std::size_t lane, Packet&& pkt) noexcept {
    if (!lanes_[lane]->try_push(std::move(pkt))) return false;
    work_->ring();
    return true;
  }

  /// Stable pointer to a lane's ring, so an Endpoint can skip the
  /// vector + unique_ptr indirections on every send. Lanes are created in
  /// the constructor and never reallocated.
  SpscRing<Packet>* lane_ring(std::size_t lane) noexcept {
    return lanes_[lane].get();
  }

  /// Enqueue, deriving the lane from the packet's own header. Convenience
  /// for tests that push hand-built packets; production traffic goes
  /// through Endpoint, which caches the lane.
  bool try_push(Packet&& pkt) noexcept {
    return try_push_lane(lane_for(pkt.hdr.src_rank, pkt.hdr.src_ctx), std::move(pkt));
  }

  /// Dequeue one packet, round-robin across lanes. Single consumer. The
  /// hot-lane pointer skips the vector + unique_ptr derefs while one lane
  /// keeps hitting (the overwhelmingly common shape: one busy peer).
  bool try_pop(Packet& out) noexcept {
    if (hot_ != nullptr && hot_->try_pop(out)) return true;
    const std::size_t n = lanes_.size();
    for (std::size_t i = 0; i < n; ++i) {
      SpscRing<Packet>* lane = lanes_[cursor_].get();
      if (lane->try_pop(out)) {
        hot_ = lane;
        return true;
      }
      cursor_ = cursor_ + 1 == n ? 0 : cursor_ + 1;
    }
    return false;
  }

  /// Dequeue up to `max_n` packets, sweeping each lane at most once.
  /// Single consumer. The cursor persists across calls so a hot lane
  /// cannot starve the others. A result short of `max_n` means every lane
  /// was empty at an acquire read of its tail taken during this call.
  std::size_t try_pop_n(Packet* out, std::size_t max_n) noexcept {
    const std::size_t lanes = lanes_.size();
    std::size_t n = 0;
    for (std::size_t i = 0; i < lanes && n < max_n; ++i) {
      n += lanes_[cursor_]->try_pop_n(out + n, max_n - n);
      if (n >= max_n) break;  // lane still hot: resume here next drain
      cursor_ = cursor_ + 1 == lanes ? 0 : cursor_ + 1;
    }
    return n;
  }

  /// Total packets ever enqueued (sum of lane push cursors).
  std::uint64_t pushed_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane->pushed_approx();
    return n;
  }

  /// Approximate occupancy across all lanes.
  std::size_t size_approx() const noexcept {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane->size_approx();
    return n;
  }

 private:
  WorkWord* work_;  ///< the owning context's word
  const int n_local_;
  const int k_stride_;
  std::vector<std::unique_ptr<SpscRing<Packet>>> lanes_;
  std::size_t cursor_ = 0;               ///< consumer-owned; CRI lock hands it off
  SpscRing<Packet>* hot_ = nullptr;      ///< consumer-owned last-hit lane
};

/// One network context: the unit of resource replication inside a CRI.
/// Owns an RX queue (per-source SPSC lanes, locally-locked consumer), a CQ
/// and the work word both ring.
class NetworkContext {
 public:
  NetworkContext(int rank, int index, const RxLayout& layout, int num_local_contexts,
                 const FabricParams& params)
      : rank_(rank),
        index_(index),
        rx_(layout, num_local_contexts, params.rx_ring_entries, work_),
        cq_(params.cq_entries) {}

  int rank() const noexcept { return rank_; }
  int index() const noexcept { return index_; }

  RxQueue& rx() noexcept { return rx_; }
  MpscRing<Completion>& cq() noexcept { return cq_; }
  WorkWord& work() noexcept { return work_; }

  /// Post a completion event and ring the work word; false when the CQ is
  /// full. Every CQ producer goes through here.
  bool try_push_completion(const Completion& c) noexcept {
    if (!cq_.try_push(c)) return false;
    work_.ring();
    return true;
  }

  /// Count of packets ever delivered into this context (diagnostics).
  /// Derived from the lanes' push cursors — every successful push IS a
  /// delivery, so maintaining a separate fetch_add per packet on the
  /// injection path bought nothing but an extra contended RMW.
  std::uint64_t delivered() const noexcept { return rx_.pushed_total(); }

 private:
  const int rank_;
  const int index_;
  WorkWord work_;  ///< declared before rx_, which keeps its address
  RxQueue rx_;
  MpscRing<Completion> cq_;
};

/// A rank's NIC: the bundle of contexts the CRI pool hands out.
class Nic {
 public:
  Nic(int rank, int num_contexts, const RxLayout& layout, const FabricParams& params)
      : rank_(rank) {
    FAIRMPI_CHECK(num_contexts >= 1);
    contexts_.reserve(static_cast<std::size_t>(num_contexts));
    for (int i = 0; i < num_contexts; ++i) {
      contexts_.push_back(
          std::make_unique<NetworkContext>(rank, i, layout, num_contexts, params));
    }
  }

  int rank() const noexcept { return rank_; }
  int num_contexts() const noexcept { return static_cast<int>(contexts_.size()); }
  NetworkContext& context(int i) { return *contexts_[static_cast<std::size_t>(i)]; }
  const NetworkContext& context(int i) const { return *contexts_[static_cast<std::size_t>(i)]; }

 private:
  const int rank_;
  std::vector<std::unique_ptr<NetworkContext>> contexts_;
};

/// The switch connecting all NICs of a universe.
class Fabric {
 public:
  /// `contexts_per_rank[r]` = number of contexts on rank r's NIC.
  Fabric(const std::vector<int>& contexts_per_rank, FabricParams params = {})
      : params_(params) {
    RxLayout layout;
    layout.num_ranks = static_cast<int>(contexts_per_rank.size());
    for (const int n : contexts_per_rank) {
      if (n > layout.max_src_contexts) layout.max_src_contexts = n;
    }
    nics_.reserve(contexts_per_rank.size());
    for (std::size_t r = 0; r < contexts_per_rank.size(); ++r) {
      nics_.push_back(std::make_unique<Nic>(static_cast<int>(r), contexts_per_rank[r],
                                            layout, params_));
    }
  }

  int num_ranks() const noexcept { return static_cast<int>(nics_.size()); }
  Nic& nic(int rank) { return *nics_[static_cast<std::size_t>(rank)]; }

  /// RX context on `dst_rank` that sender context `src_ctx` feeds. The
  /// common case (symmetric context counts, so src_ctx < n) skips the
  /// integer divide — ~20 cycles that showed up on the injection path.
  int route(int dst_rank, int src_ctx) const noexcept {
    const int n = nics_[static_cast<std::size_t>(dst_rank)]->num_contexts();
    return src_ctx < n ? src_ctx : src_ctx % n;
  }

  /// Inject a packet from stream (src_rank, src_ctx) toward `dst_rank`.
  /// Returns false when the stream's lane is out of credits — the caller
  /// must back off (drop the CRI lock, progress, retry); see p2p/sender.cpp.
  /// With checksums enabled every packet is stamped here, *before* fault
  /// injection, so in-flight corruption is detectable at the receiver.
  /// Callers must be the stream's serialized producer (the source instance
  /// lock); Endpoint::try_send is the production entry and caches the
  /// routing below.
  bool try_deliver(int dst_rank, int src_rank, int src_ctx, Packet&& pkt) {
    NetworkContext& ctx = nic(dst_rank).context(route(dst_rank, src_ctx));
    const std::size_t lane = ctx.rx().lane_for(src_rank, src_ctx);
    if (plain_path_) return ctx.rx().try_push_lane(lane, std::move(pkt));
    return deliver_slow(ctx, lane, dst_rank, std::move(pkt));
  }

  /// Reliability/fault path shared by try_deliver and the lane-cached
  /// Endpoint fast path: checksum stamping and the link fault model.
  bool deliver_slow(NetworkContext& ctx, std::size_t lane, int dst_rank, Packet&& pkt) {
    if (checksums_) stamp_checksum(pkt);
    if (injector_ == nullptr) return ctx.rx().try_push_lane(lane, std::move(pkt));
    return deliver_faulty(ctx, lane, dst_rank, std::move(pkt));
  }

  /// Enable checksum stamping and (when params.any()) fault injection.
  /// `force_injector` builds the injector even with all-zero probabilities —
  /// the ft layer needs its peer-death mode (kill_rank) available on an
  /// otherwise pristine fabric. `pool_cap_bytes` bounds the injector's
  /// corrupt-fault payload copies (FaultInjector). Call before traffic flows; not
  /// thread-safe against concurrent sends.
  void configure_reliability(const FaultParams& faults, bool checksums,
                             bool force_injector = false,
                             std::uint64_t pool_cap_bytes = 0) {
    checksums_ = checksums;
    if (faults.any() || force_injector) {
      injector_ = std::make_unique<FaultInjector>(num_ranks(), faults, pool_cap_bytes);
    }
    plain_path_ = !checksums_ && injector_ == nullptr;
  }

  FaultInjector* injector() noexcept { return injector_.get(); }
  /// True when injection can bypass checksums and fault modeling.
  bool plain_path() const noexcept { return plain_path_; }

  const FabricParams& params() const noexcept { return params_; }

 private:
  /// Slow path: run the packet through the link's fault model and push the
  /// resulting batch. Backpressure is decided before the model runs: a
  /// packet the wire never carried must come back exactly as offered —
  /// handing back a corrupted one would let the retry stamp a valid
  /// checksum over the flipped bit. (A dead link still eats the packet, as
  /// it would any other.) With one free slot the primary (always pkts[0]
  /// when it survives) cannot meet a full lane, because the caller is the
  /// lane's only producer; lost duplicates/releases behind it are ordinary
  /// wire losses. The whole batch lands on the caller's lane — a
  /// parked-then-released reordered packet may therefore hop streams, which
  /// is exactly the cross-stream reordering the fault model exists to
  /// produce.
  bool deliver_faulty(NetworkContext& ctx, std::size_t lane, int dst_rank, Packet&& pkt) {
    const int src = static_cast<int>(pkt.hdr.src_rank);
    if (!ctx.rx().lane_ring(lane)->has_room() && !injector_->rank_dead(src) &&
        !injector_->rank_dead(dst_rank)) {
      return false;
    }
    FaultInjector::Batch batch;
    injector_->process(src, dst_rank, std::move(pkt), batch);
    for (std::size_t i = 0; i < batch.n; ++i) {
      if (!ctx.rx().try_push_lane(lane, std::move(batch.pkts[i]))) {
        FAIRMPI_DCHECK(static_cast<int>(i) != batch.primary);
        injector_->stats().ring_losses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return true;
  }

  FabricParams params_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::unique_ptr<FaultInjector> injector_;
  bool checksums_ = false;
  bool plain_path_ = true;
};

/// A (context, peer) pairing — the sender-side handle a CRI uses to reach
/// one destination rank, mirroring one endpoint/QP per peer per context.
/// The destination context and lane are resolved ONCE here: fabric routing
/// is static after construction, and re-walking nic/context/lane tables per
/// packet cost several dependent loads on the hottest path in the codebase.
class Endpoint {
 public:
  Endpoint(Fabric& fabric, NetworkContext& local, int dst_rank) noexcept
      : fabric_(&fabric),
        dst_ctx_(&fabric.nic(dst_rank).context(fabric.route(dst_rank, local.index()))),
        dst_rank_(dst_rank),
        lane_(dst_ctx_->rx().lane_for(local.rank(), local.index())),
        ring_(dst_ctx_->rx().lane_ring(lane_)),
        src_ctx_(static_cast<std::uint16_t>(local.index())) {}

  int dst_rank() const noexcept { return dst_rank_; }

  /// Injects; false on backpressure. Caller must be this endpoint's
  /// serialized producer — production callers reach here through
  /// CommResourceInstance::endpoint(), which requires the instance lock.
  bool try_send(Packet&& pkt) {
    pkt.hdr.src_ctx = src_ctx_;
    if (fabric_->plain_path()) {
      if (!ring_->try_push(std::move(pkt))) return false;
      dst_ctx_->work().ring();
      return true;
    }
    return fabric_->deliver_slow(*dst_ctx_, lane_, dst_rank_, std::move(pkt));
  }

 private:
  Fabric* fabric_;
  NetworkContext* dst_ctx_;
  int dst_rank_;
  std::size_t lane_;
  SpscRing<Packet>* ring_;  ///< lane_'s ring, cached past two indirections
  std::uint16_t src_ctx_;
};

}  // namespace fairmpi::fabric
