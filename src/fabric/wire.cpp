// Size-classed payload pool backing fabric::make_payload.
//
// Classes are powers of two from 128 B to 64 KiB (payloads <= kInlineBytes
// never reach the heap, and the rendezvous fragmenter caps fragments well
// under 64 KiB). Each class is a SlabArena, so steady-state traffic recycles
// buffers through per-thread caches with zero allocator calls; the arena's
// global-lock handoff keeps cross-thread release (packet freed by the
// receiver's progress thread) TSan-clean. A pooled slot is one header cache
// line, whose last bytes hold the buffer's reference count, followed by the
// payload; the last handle's release returns the slot.

#include "fairmpi/fabric/wire.hpp"

#include <atomic>
#include <bit>
#include <new>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/slab_pool.hpp"

namespace fairmpi::fabric {
namespace {

constexpr int kMinShift = 7;   // 128 B — smallest pooled class
constexpr int kMaxShift = 16;  // 64 KiB — largest pooled class
constexpr int kNumClasses = kMaxShift - kMinShift + 1;
/// Header ahead of a pooled payload: one cache line, so the payload stays
/// line-aligned and its first line is not the one the count is written on.
constexpr std::size_t kSlotHeader = kCacheLine;

/// Size class for `n` bytes, or -1 when n exceeds the largest class.
int class_for(std::size_t n) noexcept {
  if (n > (std::size_t{1} << kMaxShift)) return -1;
  if (n <= (std::size_t{1} << kMinShift)) return 0;
  return static_cast<int>(std::bit_width(n - 1)) - kMinShift;
}

/// The per-class arenas, created on first use and deliberately immortal:
/// a PayloadBuffer held by a static-duration object (e.g. a test fixture)
/// may release after normal static destruction would have run.
common::SlabArena& arena(int cls) {
  static auto* arenas = [] {
    // lint: allow(hotpath-alloc) one-time immortal arena table
    auto* a = new std::array<common::SlabArena*, kNumClasses>();
    for (int i = 0; i < kNumClasses; ++i) {
      const std::size_t bytes = std::size_t{1} << (kMinShift + i);
      // Bigger classes carve fewer slots per slab to bound slab size.
      (*a)[static_cast<std::size_t>(i)] =
          // lint: allow(hotpath-alloc) one-time immortal per-class arena
          new common::SlabArena(kSlotHeader + bytes, bytes <= 4096 ? 64 : 8);
    }
    return a;
  }();
  return *(*arenas)[static_cast<std::size_t>(cls)];
}

/// In-use / high-water byte accounting (overload admission reads these).
/// Process-global like the arenas; relaxed — the counts gate admission and
/// feed observability, they order nothing.
std::atomic<std::uint64_t> pool_in_use_bytes{0};
std::atomic<std::uint64_t> pool_high_water_bytes{0};

/// Sticky process-global switch (like obs::set_enabled): the per-packet
/// byte accounting costs two shared-cache-line RMWs per make/release, which
/// the uncapped fast path must not pay. A Universe flips it on when a pool
/// cap or observability is configured; until then make/release pay one
/// relaxed load + a never-taken branch to a cold out-of-line body.
std::atomic<bool> pool_accounting_on{false};

#if defined(__GNUC__)
#define FAIRMPI_COLD __attribute__((noinline, cold))
#else
#define FAIRMPI_COLD
#endif

void raise_high_water(std::uint64_t now) noexcept {
  // lint: allow(relaxed-sync) monotone high-water mark, no ordering needed
  std::uint64_t hw = pool_high_water_bytes.load(std::memory_order_relaxed);
  while (now > hw &&
         !pool_high_water_bytes.compare_exchange_weak(hw, now,
                                                      std::memory_order_relaxed)) {
  }
}

/// Charge `n` bytes; with a nonzero `cap`, only while in-use bytes are
/// still below it. A compare-exchange rather than an add-then-roll-back,
/// so a refused charge never shows in the gauge or its high-water mark.
FAIRMPI_COLD bool charge_pool_bytes_slow(std::uint64_t n, std::uint64_t cap) noexcept {
  std::uint64_t cur = 0;
  if (cap == 0) {
    cur = pool_in_use_bytes.fetch_add(n, std::memory_order_relaxed);
  } else {
    cur = pool_in_use_bytes.load(std::memory_order_relaxed);
    do {
      if (cur >= cap) return false;
    } while (!pool_in_use_bytes.compare_exchange_weak(cur, cur + n,
                                                      std::memory_order_relaxed));
  }
  raise_high_water(cur + n);
  return true;
}

/// Saturating un-charge: a payload created before the accounting switch
/// flipped on was never charged, so its release must not wrap the gauge
/// negative — clamp at zero (at worst the gauge undercounts briefly).
FAIRMPI_COLD void uncharge_pool_bytes_slow(std::uint64_t n) noexcept {
  std::uint64_t cur = pool_in_use_bytes.load(std::memory_order_relaxed);
  while (!pool_in_use_bytes.compare_exchange_weak(cur, cur >= n ? cur - n : 0,
                                                  std::memory_order_relaxed)) {
  }
}

inline bool charge_pool_bytes(std::uint64_t n, std::uint64_t cap) noexcept {
  // lint: allow(relaxed-sync) sticky diagnostics gate; counts order nothing
  if (pool_accounting_on.load(std::memory_order_relaxed)) [[unlikely]] {
    return charge_pool_bytes_slow(n, cap);
  }
  return true;
}

inline void uncharge_pool_bytes(std::uint64_t n) noexcept {
  // lint: allow(relaxed-sync) sticky diagnostics gate; counts order nothing
  if (pool_accounting_on.load(std::memory_order_relaxed)) [[unlikely]] {
    uncharge_pool_bytes_slow(n);
  }
}

/// Huge (>64 KiB) payloads come from plain new[] with a 16-byte header
/// ahead of the caller-visible pointer: the byte count, so the release can
/// credit the exact size, then the reference count. 16 keeps the payload's
/// effective alignment at new[]'s.
constexpr std::size_t kHugeHeader = 16;
static_assert(kHugeHeader - kPayloadRefOffset >= sizeof(std::uint64_t) &&
                  kSlotHeader >= kPayloadRefOffset,
              "the reference count overlaps neither the byte count nor the payload");

/// Start the reference count of a fresh buffer at one handle.
std::byte* init_refs(std::byte* p) noexcept {
  // lint: allow(hotpath-alloc) placement new into the buffer's own header
  ::new (p - kPayloadRefOffset) std::atomic<std::uint32_t>(1);
  return p;
}

}  // namespace

void enable_payload_pool_accounting() noexcept {
  pool_accounting_on.store(true, std::memory_order_relaxed);
}

void release_payload(std::byte* p, int size_class) noexcept {
  std::atomic<std::uint32_t>& refs = payload_refs(p);
  // A sole handle skips the RMW: no other thread can share it now. The
  // acquire (on either branch) orders every other holder's reads of the
  // bytes before the slot's reuse.
  if (refs.load(std::memory_order_acquire) != 1 &&
      refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  if (size_class >= 0) {
    arena(size_class).release(p - kSlotHeader);
    uncharge_pool_bytes(std::uint64_t{1} << (kMinShift + size_class));
    return;
  }
  std::byte* raw = p - kHugeHeader;
  std::uint64_t n = 0;
  std::memcpy(&n, raw, sizeof n);
  delete[] raw;
  uncharge_pool_bytes(n);
}

PayloadPoolStats payload_pool_stats() noexcept {
  return PayloadPoolStats{pool_in_use_bytes.load(std::memory_order_relaxed),
                          pool_high_water_bytes.load(std::memory_order_relaxed)};
}

void reset_payload_pool_high_water() noexcept {
  pool_high_water_bytes.store(pool_in_use_bytes.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

std::uint64_t payload_charge(std::size_t n) noexcept {
  if (n <= kInlineBytes) return 0;
  const int cls = class_for(n);
  return cls < 0 ? n : std::uint64_t{1} << (kMinShift + cls);
}

PayloadBuffer make_payload(std::size_t n, std::uint64_t pool_cap) {
  const int cls = class_for(n);
  if (cls < 0) {
    if (!charge_pool_bytes(n, pool_cap)) return {};
    // lint: allow(hotpath-alloc) >64KiB payloads exceed every pool class
    auto* raw = new std::byte[n + kHugeHeader];
    const std::uint64_t bytes = n;
    std::memcpy(raw, &bytes, sizeof bytes);
    return PayloadBuffer(init_refs(raw + kHugeHeader), -1);
  }
  if (!charge_pool_bytes(std::uint64_t{1} << (kMinShift + cls), pool_cap)) return {};
  auto* slot = static_cast<std::byte*>(arena(cls).acquire());
  return PayloadBuffer(init_refs(slot + kSlotHeader), static_cast<std::int8_t>(cls));
}

namespace {

// One source, compiled once per vector width and picked at load time by the
// CPU (an ifunc): the checksum loop is the largest single cost of a reliable
// 4 KiB message on each side of the wire. The clones are of wire_checksum,
// not of add_words, so add_words inlines into each: one checksum costs one
// indirect call, and the 32-byte header sum stays unrolled (a clone per
// add_words call cost a 64-byte packet 6 ns). Elsewhere the function builds
// once for the baseline target, and so it does under TSan, whose
// instrumented ifunc resolver would run during relocation, before the TSan
// runtime is up, and crash the process.
#if defined(__x86_64__) && defined(__GNUC__) && defined(__linux__) && !defined(FAIRMPI_TSAN)
#define FAIRMPI_VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define FAIRMPI_VECTOR_CLONES
#endif

/// Add `n` bytes to a ones'-complement accumulator, 8 bytes per step. Each
/// word enters as its two 32-bit halves, so the 64-bit accumulator cannot
/// carry out (a u32 payload_size bounds the word count far below 2^31) and
/// the loop has no carry chain — it vectorizes. The tail is zero-padded.
std::uint64_t add_words(std::uint64_t acc, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    acc += (w & 0xffffffffu) + (w >> 32);
  }
  if (n != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    acc += (w & 0xffffffffu) + (w >> 32);
  }
  return acc;
}

}  // namespace

FAIRMPI_VECTOR_CLONES
std::uint16_t wire_checksum(const WireHeader& hdr, const std::byte* payload,
                            std::size_t n) noexcept {
  WireHeader h = hdr;
  h.csum = 0;
  std::uint64_t acc = add_words(0, &h, sizeof h);  // 32 B: no tail, stays aligned
  acc = add_words(acc, payload, n);
  // Fold 64 -> 16 bits with end-around carry (2^16 == 1 mod 0xffff); two
  // rounds at each width suffice for the bounds the first round leaves.
  acc = (acc & 0xffffffffu) + (acc >> 32);
  acc = (acc & 0xffffffffu) + (acc >> 32);
  acc = (acc & 0xffffu) + (acc >> 16);
  acc = (acc & 0xffffu) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffffu);
}

void stamp_checksum(Packet& pkt) noexcept {
  pkt.hdr.csum = wire_checksum(pkt.hdr, pkt.payload(), pkt.hdr.payload_size);
}

bool verify_checksum(const Packet& pkt) noexcept {
  return pkt.hdr.csum == wire_checksum(pkt.hdr, pkt.payload(), pkt.hdr.payload_size);
}

}  // namespace fairmpi::fabric
