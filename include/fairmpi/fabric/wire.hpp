// Wire format of the simulated fabric.
//
// Open MPI's OB1 eager protocol prepends a small matching envelope (~28
// bytes: source, communicator, tag, sequence number) to every fragment; the
// paper's zero-byte experiments measure exactly the cost of moving and
// matching this envelope. Our header is 32 bytes and carries the same
// information plus an opcode for RMA extensions.
//
// Payload buffers larger than the inline threshold are recycled through a
// size-classed slab pool (make_payload below) rather than new[]'d per
// packet: a real transport posts sends from a registered buffer pool, and
// §II-C's hot-path discipline forbids general-purpose allocation per
// message. The pool is process-global because packets (and with them buffer
// ownership) migrate across threads through the RX rings. A buffer is
// immutable once sent and reference-counted, so every copy of a packet
// (retransmit master, retransmit, fabric duplicate) shares its bytes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace fairmpi::fabric {

enum class Opcode : std::uint16_t {
  kInvalid = 0,
  kEager,        ///< two-sided eager message (envelope [+ payload])
  kRndvRts,      ///< rendezvous request-to-send (large-message extension)
  kRndvAck,      ///< rendezvous clear-to-send
  kRndvData,     ///< rendezvous payload fragment
  kAck,          ///< reliability acknowledgement (echoes the acked key)
  kHeartbeat,    ///< ft liveness probe (header-only; never acked or tracked)
  kDefer,        ///< deferral notice (echoes the key of a packet held at the cap)
};

/// Last opcode value that is valid on the wire (header validation).
inline constexpr std::uint16_t kMaxOpcode = static_cast<std::uint16_t>(Opcode::kDefer);

/// The matching envelope. POD, fixed 32 bytes. The old 32-bit src_ctx
/// diagnostic field donates its upper half to the reliability checksum so
/// the envelope stays exactly as compact as OB1's.
struct WireHeader {
  Opcode opcode = Opcode::kInvalid;
  std::uint16_t src_rank = 0;     ///< sending rank in the universe
  std::uint32_t comm_id = 0;      ///< destination communicator
  std::int32_t tag = 0;           ///< user tag (kAck: acked packet's opcode)
  std::uint32_t seq = 0;          ///< per (comm, src->dst) sequence number
  std::uint32_t payload_size = 0; ///< bytes following the header
  std::uint16_t src_ctx = 0;      ///< sender-side context id (diagnostics)
  std::uint16_t csum = 0;         ///< header+payload checksum (0 when disabled)
  std::uint64_t imm = 0;          ///< opcode-specific immediate (e.g. request cookie)
};
static_assert(sizeof(WireHeader) == 32, "envelope must stay compact");
static_assert(std::is_trivially_copyable_v<WireHeader>);

/// Payload bytes small enough to travel inline in the ring slot, as a real
/// NIC inlines small sends into the descriptor.
inline constexpr std::size_t kInlineBytes = 64;

/// Drop one handle on a payload buffer (wire.cpp); the last handle returns
/// the bytes to their size class (class -1: the new[] huge path). May run
/// on a different thread than acquired the buffer.
void release_payload(std::byte* p, int size_class) noexcept;

/// Bytes ahead of every payload pointer that hold its reference count (the
/// end of a pooled slot's header cache line, or of the huge header).
inline constexpr std::size_t kPayloadRefOffset = sizeof(std::uint64_t);

/// The reference count of the payload buffer at `p`.
inline std::atomic<std::uint32_t>& payload_refs(const std::byte* p) noexcept {
  return *std::launder(reinterpret_cast<std::atomic<std::uint32_t>*>(
      const_cast<std::byte*>(p) - kPayloadRefOffset));
}

/// Bytes ahead of every payload pointer that hold the buffer's cached
/// payload sum (copy_and_sum), the 8 bytes before the reference count.
inline constexpr std::size_t kPayloadSumOffset = 2 * sizeof(std::uint64_t);

/// The cached-sum value of a buffer whose bytes were not summed, or were
/// written since. No real sum reaches it: a u32 payload_size keeps every
/// partial sum below 2^62.
inline constexpr std::uint64_t kNoSum = ~std::uint64_t{0};

/// Copy `n` bytes from `src` to `dst` and return their partial
/// ones'-complement sum, unfolded, as wire_checksum adds payload words:
/// the payload half of a checksum, made in the copy's one pass over the
/// bytes (wire.cpp).
std::uint64_t copy_and_sum(std::byte* dst, const void* src, std::size_t n) noexcept;

/// Shared, immutable payload bytes (DESIGN.md §5c "Shared payloads"). A
/// handle is move-only; share() makes another handle on the same bytes, so
/// a retransmit master, its retransmits and a fabric duplicate all carry
/// the wire packet's buffer instead of a copy. The count, and beside it
/// the cached checksum sum, live just ahead of the bytes; the last handle
/// dropped returns them to the pool. Only a buffer's sole handle may write
/// it (Packet::mutable_payload copies first otherwise), so the sum, set
/// before the first share(), holds for every handle.
class PayloadBuffer {
 public:
  PayloadBuffer() = default;
  PayloadBuffer(PayloadBuffer&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)), cls_(other.cls_) {}
  PayloadBuffer& operator=(PayloadBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = std::exchange(other.p_, nullptr);
      cls_ = other.cls_;
    }
    return *this;
  }
  PayloadBuffer(const PayloadBuffer&) = delete;
  PayloadBuffer& operator=(const PayloadBuffer&) = delete;
  ~PayloadBuffer() { reset(); }

  const std::byte* get() const noexcept { return p_; }

  /// Another handle on the same bytes. The caller's handle keeps the count
  /// above zero, so the increment orders nothing.
  PayloadBuffer share() const noexcept {
    PayloadBuffer out;
    if (p_ != nullptr) {
      // lint: allow(relaxed-sync) the sharer holds a reference; the release in release_payload orders the free
      payload_refs(p_).fetch_add(1, std::memory_order_relaxed);
      out.p_ = p_;
      out.cls_ = cls_;
    }
    return out;
  }

  /// True when this is the buffer's only handle. No other thread can then
  /// make one, so the answer stays true while this handle lives.
  bool unique() const noexcept {
    return payload_refs(p_).load(std::memory_order_acquire) == 1;
  }

  void reset() noexcept {
    if (p_ != nullptr) release_payload(std::exchange(p_, nullptr), cls_);
  }

  /// The payload sum cached when the bytes were copied in, or kNoSum. Set
  /// only through a sole handle, before the buffer is shared.
  std::uint64_t cached_sum() const noexcept {
    std::uint64_t sum = 0;
    std::memcpy(&sum, p_ - kPayloadSumOffset, sizeof sum);
    return sum;
  }

  friend bool operator==(const PayloadBuffer& b, std::nullptr_t) noexcept {
    return b.p_ == nullptr;
  }

 private:
  friend PayloadBuffer make_payload(std::size_t n, std::uint64_t pool_cap);
  friend struct Packet;

  PayloadBuffer(std::byte* p, std::int8_t cls) noexcept : p_(p), cls_(cls) {}

  /// Writable bytes: a fresh buffer, or one that unique() just vouched for.
  /// Any write may change the bytes, so the cached sum is forgotten.
  std::byte* writable() noexcept {
    set_sum(kNoSum);
    return p_;
  }

  void set_sum(std::uint64_t sum) noexcept {
    std::memcpy(p_ - kPayloadSumOffset, &sum, sizeof sum);
  }

  std::byte* p_ = nullptr;
  std::int8_t cls_ = -1;
};

/// Process-global payload-pool byte accounting: bytes currently checked out
/// (pooled buffers count their size class's full capacity, new[] payloads
/// their exact size) and the lifetime high-water mark. The admission layer
/// reads in_use_bytes with one relaxed load; tests assert high_water stays
/// within the configured cap.
struct PayloadPoolStats {
  std::uint64_t in_use_bytes = 0;
  std::uint64_t high_water_bytes = 0;
};
PayloadPoolStats payload_pool_stats() noexcept;

/// Sticky process-global enable for the per-packet pool byte accounting
/// (§5h). Off by default — the uncapped fast path pays one relaxed load —
/// and flipped on by any Universe configured with a payload-pool cap or
/// with observability enabled. Never unset (a later uncapped universe must
/// not blind a concurrent capped one); payloads charged before the flip
/// release with a saturating credit.
void enable_payload_pool_accounting() noexcept;

/// Rebase the high-water mark to the current in-use level (test isolation;
/// the pool is process-global, so suites reset between scenarios).
void reset_payload_pool_high_water() noexcept;

/// Acquire an `n`-byte payload buffer with one handle from the
/// size-classed pool (allocation-free in steady state; new[] above the
/// largest class). A nonzero `pool_cap` makes the charge refusable (§5h):
/// once in-use bytes have reached the cap the result is null and nothing is
/// charged, so an admitted charge ends at most its own size above the cap.
PayloadBuffer make_payload(std::size_t n, std::uint64_t pool_cap = 0);

/// Pool bytes make_payload charges for `n` payload bytes: the size class
/// (the exact size above the largest class); 0 for an inline payload.
std::uint64_t payload_charge(std::size_t n) noexcept;

// Relaxed-atomic-load header copy rationale (FAIRMPI_WIRE_FIELD_COPY
// below): a whole-struct WireHeader copy compiles to 16-byte vector loads,
// which stall in the store buffer when the header was just written with
// narrow field stores — the universal pattern on the injection path
// (protocol code fills hdr.opcode/tag/seq/... and the packet is immediately
// moved into a ring slot; a load can only forward from a pending store that
// fully contains it). Plain exact-width field copies do NOT fix this: GCC's
// store-merging pass coalesces them straight back into vector ops. Relaxed
// __atomic loads are exempt from merging, compile to the same single mov as
// a plain access on x86, and keep every load no wider than the narrowest
// store it might forward from. The STORE side stays plain on purpose: GCC
// merges the nine field stores into two 16-byte vector stores, which is
// cheaper to issue and still forwards cleanly to any later field-width
// atomic load (each is fully contained in the wide store). Net: ~2x per
// ring push+pop on the injection path versus whole-struct copies. Under
// TSan we fall back to plain copies: the atomics are a codegen device, not
// synchronization, and must not mask real races on packet handoff.
#if !defined(FAIRMPI_TSAN)
#if defined(__SANITIZE_THREAD__)
#define FAIRMPI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FAIRMPI_TSAN 1
#endif
#endif
#endif

#if defined(__GNUC__) && !defined(FAIRMPI_TSAN)
#define FAIRMPI_WIRE_FIELD_COPY(dst, src, f) \
  (dst).f = __atomic_load_n(&(src).f, __ATOMIC_RELAXED)
#else
#define FAIRMPI_WIRE_FIELD_COPY(dst, src, f) (dst).f = (src).f
#endif

/// Copy a header field-by-field with exact-width, merge-proof accesses (see
/// the block comment above FAIRMPI_WIRE_FIELD_COPY).
inline void copy_header(WireHeader& dst, const WireHeader& src) noexcept {
  FAIRMPI_WIRE_FIELD_COPY(dst, src, opcode);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, src_rank);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, comm_id);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, tag);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, seq);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, payload_size);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, src_ctx);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, csum);
  FAIRMPI_WIRE_FIELD_COPY(dst, src, imm);
}

/// One fabric packet: header + inline or heap payload. Move-only; the heap
/// buffer's ownership rides through the RX ring to the receiver.
struct Packet {
  WireHeader hdr{};
  /// Deliberately NOT value-initialized: zeroing 64 bytes per packet was
  /// measurable on the injection path, and set_payload/payload() only ever
  /// expose the first hdr.payload_size bytes.
  std::array<std::byte, kInlineBytes> inline_data;
  PayloadBuffer heap;

  Packet() = default;
  /// Payload-size-aware move: the defaulted move copied all 64 inline bytes
  /// even for header-only packets, and a packet is moved at least twice per
  /// delivery (into the RX ring, out at drain). Only the bytes set_payload
  /// actually wrote are meaningful, so only those move.
  Packet(Packet&& other) noexcept : heap(std::move(other.heap)) {
    copy_header(hdr, other.hdr);
    // n-1 wraps for n==0, folding the "empty" and "heap-resident" cases
    // into one compare on the hot path.
    const std::size_t n = hdr.payload_size;
    if (n - 1 < kInlineBytes) {
      std::memcpy(inline_data.data(), other.inline_data.data(), n);
    }
  }
  Packet& operator=(Packet&& other) noexcept {
    copy_header(hdr, other.hdr);
    heap = std::move(other.heap);
    const std::size_t n = hdr.payload_size;
    if (n - 1 < kInlineBytes) {
      std::memcpy(inline_data.data(), other.inline_data.data(), n);
    }
    return *this;
  }
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  /// Copy `n` payload bytes in, choosing inline vs pooled-heap storage.
  /// False when a nonzero `pool_cap` refuses the pooled buffer
  /// (make_payload); the packet must then not be sent. With `summed`, a
  /// heap payload's checksum sum is made in the copy and cached in the
  /// buffer, so stamp_checksum adds only the header: reliable senders,
  /// whose packets the fabric stamps, pass true.
  bool set_payload(const void* data, std::size_t n, std::uint64_t pool_cap = 0,
                   bool summed = false) {
    hdr.payload_size = static_cast<std::uint32_t>(n);
    if (n == 0) return true;
    if (n <= kInlineBytes) {
      std::memcpy(inline_data.data(), data, n);
      heap.reset();
      return true;
    }
    heap = make_payload(n, pool_cap);
    if (heap == nullptr) return false;
    std::byte* dst = heap.writable();
    if (summed) {
      heap.set_sum(copy_and_sum(dst, data, n));
    } else {
      std::memcpy(dst, data, n);
    }
    return true;
  }

  const std::byte* payload() const noexcept {
    if (hdr.payload_size == 0) return nullptr;
    return hdr.payload_size <= kInlineBytes ? inline_data.data() : heap.get();
  }

  /// Writable payload bytes. A heap buffer another handle shares is copied
  /// first (a retransmit master or a duplicate must never see the write);
  /// that copy is charged like any payload, refusably under a nonzero
  /// `pool_cap`, and a refused copy returns null with the packet unchanged.
  /// The buffer's cached sum is forgotten (PayloadBuffer::writable).
  std::byte* mutable_payload(std::uint64_t pool_cap = 0) {
    const std::size_t n = hdr.payload_size;
    if (n == 0) return nullptr;
    if (n <= kInlineBytes) return inline_data.data();
    if (!heap.unique()) {
      PayloadBuffer own = make_payload(n, pool_cap);
      if (own == nullptr) return nullptr;
      std::memcpy(own.writable(), heap.get(), n);
      heap = std::move(own);
    }
    return heap.writable();
  }
};

/// Checksum of a header (with its csum field zeroed) plus `n` payload bytes:
/// the complemented 16-bit ones'-complement sum of RFC 1071 (the Internet
/// checksum) over the bytes in host order, computed 8 bytes at a time with a
/// zero-padded tail. Flipping any single bit moves the sum by 2^k mod 0xffff,
/// which is never 0, so every single-bit fault is detected. Error detection
/// for the fault injector, not cryptography.
std::uint16_t wire_checksum(const WireHeader& hdr, const std::byte* payload,
                            std::size_t n) noexcept;

/// Stamp pkt.hdr.csum; called by the fabric at injection when checksums are
/// enabled (before fault injection, so corruption is detectable). A heap
/// payload with a cached sum (set_payload's `summed`) adds only the header.
void stamp_checksum(Packet& pkt) noexcept;

/// Recompute over every byte and compare; never reads a cached sum. A
/// packet whose payload pointer is inconsistent with payload_size fails
/// structural validation before this is called.
bool verify_checksum(const Packet& pkt) noexcept;

/// Copy `pkt` into `out` for duplication and retransmit tracking: the
/// header and any inline bytes are copied, a heap payload is shared, not
/// copied (PayloadBuffer::share), so a clone never charges the pool.
inline void clone_packet(const Packet& pkt, Packet& out) noexcept {
  copy_header(out.hdr, pkt.hdr);
  const std::size_t n = pkt.hdr.payload_size;
  if (n <= kInlineBytes) {
    std::memcpy(out.inline_data.data(), pkt.inline_data.data(), n);
    out.heap.reset();
  } else {
    out.heap = pkt.heap.share();
  }
}

/// Structural validation of an inbound packet, before it may reach matching:
/// known opcode, source rank within the universe, and a payload pointer
/// consistent with payload_size. Cheap enough to run unconditionally.
inline bool validate_structure(const Packet& pkt, int num_ranks) noexcept {
  const std::uint16_t op = static_cast<std::uint16_t>(pkt.hdr.opcode);
  if (op == 0 || op > kMaxOpcode) return false;
  if (static_cast<int>(pkt.hdr.src_rank) >= num_ranks) return false;
  if (pkt.hdr.payload_size > kInlineBytes && pkt.heap == nullptr) return false;
  return true;
}

}  // namespace fairmpi::fabric
