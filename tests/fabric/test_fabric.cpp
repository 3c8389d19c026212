#include "fairmpi/fabric/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace fairmpi::fabric {
namespace {

Packet make_packet(int src, std::uint32_t seq, const std::string& payload = {}) {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(src);
  pkt.hdr.seq = seq;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

TEST(Wire, HeaderIsCompact) {
  EXPECT_EQ(sizeof(WireHeader), 32u);
}

TEST(Wire, InlinePayloadRoundTrip) {
  Packet pkt = make_packet(0, 0, "hello");
  ASSERT_EQ(pkt.hdr.payload_size, 5u);
  EXPECT_EQ(pkt.heap, nullptr);
  EXPECT_EQ(std::memcmp(pkt.payload(), "hello", 5), 0);
}

TEST(Wire, HeapPayloadRoundTrip) {
  const std::string big(kInlineBytes + 100, 'z');
  Packet pkt = make_packet(0, 0, big);
  EXPECT_NE(pkt.heap, nullptr);
  EXPECT_EQ(std::memcmp(pkt.payload(), big.data(), big.size()), 0);
}

TEST(Wire, ZeroBytePayload) {
  Packet pkt = make_packet(0, 0);
  EXPECT_EQ(pkt.hdr.payload_size, 0u);
  EXPECT_EQ(pkt.payload(), nullptr);
}

TEST(Wire, MoveTransfersHeapOwnership) {
  const std::string big(kInlineBytes * 2, 'q');
  Packet a = make_packet(1, 7, big);
  Packet b = std::move(a);
  EXPECT_EQ(a.heap, nullptr);  // NOLINT(bugprone-use-after-move): asserting move semantics
  ASSERT_NE(b.heap, nullptr);
  EXPECT_EQ(std::memcmp(b.payload(), big.data(), big.size()), 0);
}

TEST(Wire, SharedPayloadReleasesOnce) {
  // Two threads drop the two handles of one shared buffer, in either
  // order: the bytes go back to the pool exactly once. A second release
  // would credit the gauge twice; `hold` keeps it above one charge, so
  // the second credit could not hide in the gauge's clamp at zero.
  enable_payload_pool_accounting();
  const std::string big(4000, 's');
  const Packet hold = make_packet(0, 0, big);
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t before = payload_pool_stats().in_use_bytes;
    Packet a = make_packet(0, static_cast<std::uint32_t>(round), big);
    Packet b;
    clone_packet(a, b);
    ASSERT_EQ(a.payload(), b.payload());
    ASSERT_EQ(payload_pool_stats().in_use_bytes, before + payload_charge(big.size()));
    std::atomic<int> ready{0};
    const auto drop = [&ready](Packet& pkt) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      Packet sink = std::move(pkt);
    };
    Packet& theirs = round % 2 == 0 ? a : b;
    Packet& ours = round % 2 == 0 ? b : a;
    std::thread t(drop, std::ref(theirs));
    drop(ours);
    t.join();
    ASSERT_EQ(payload_pool_stats().in_use_bytes, before) << "round " << round;
  }
  // A slot released twice would be handed out twice.
  std::vector<Packet> fresh(64);
  std::set<const std::byte*> seen;
  for (Packet& p : fresh) {
    p = make_packet(0, 1, big);
    EXPECT_TRUE(seen.insert(p.payload()).second);
  }
}

/// RFC 1071 the slow way: 16-bit little-endian words, one at a time, with
/// end-around carry after every add. The oracle for wire_checksum's
/// word-at-a-time sum and fold.
std::uint16_t reference_checksum(const WireHeader& hdr, const std::byte* payload,
                                 std::size_t n) {
  WireHeader h = hdr;
  h.csum = 0;
  std::vector<unsigned char> bytes(sizeof h);
  std::memcpy(bytes.data(), &h, sizeof h);
  const auto* p = reinterpret_cast<const unsigned char*>(payload);
  if (n != 0) bytes.insert(bytes.end(), p, p + n);
  if (bytes.size() % 2 != 0) bytes.push_back(0);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>(bytes[i] | (bytes[i + 1] << 8));
    sum = (sum & 0xffffu) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffffu);
}

WireHeader sample_header(std::uint32_t payload_size) {
  WireHeader h;
  h.opcode = Opcode::kEager;
  h.src_rank = 2;
  h.comm_id = 3;
  h.tag = 4;
  h.seq = 5;
  h.payload_size = payload_size;
  h.src_ctx = 6;
  h.csum = 0xbeef;  // excluded from the sum
  h.imm = 7;
  return h;
}

TEST(Wire, ChecksumKnownAnswer) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the known answer is for little-endian header bytes";
  }
  // Header words sum to 1+2+3+4+5+11+6+7 = 0x27; payload 01..0b as LE words
  // (tail zero-padded) to 0x1e24. ~(0x27 + 0x1e24) = 0xe1b4.
  std::byte payload[11];
  for (int i = 0; i < 11; ++i) payload[i] = static_cast<std::byte>(i + 1);
  EXPECT_EQ(wire_checksum(sample_header(11), payload, 11), 0xe1b4);
}

TEST(Wire, ChecksumMatchesReferenceAtEveryTailLength) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the reference sums little-endian words";
  }
  std::vector<std::byte> payload(kInlineBytes * 2 + 1);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : payload) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  for (std::size_t n = 0; n <= payload.size(); ++n) {
    const WireHeader h = sample_header(static_cast<std::uint32_t>(n));
    EXPECT_EQ(wire_checksum(h, payload.data(), n), reference_checksum(h, payload.data(), n))
        << "n=" << n;
  }
  // All 0xff bytes: every word is 0xffff, the fold's worst case.
  std::vector<std::byte> ones(4096, std::byte{0xff});
  WireHeader h;
  std::memset(static_cast<void*>(&h), 0xff, sizeof h);
  EXPECT_EQ(wire_checksum(h, ones.data(), ones.size()),
            reference_checksum(h, ones.data(), ones.size()));
}

/// The wire_checksum and copy_and_sum clone the loader picked on this CPU
/// (wire.cpp's FAIRMPI_VECTOR_CLONES), for the log.
const char* checksum_clone() {
#if defined(__x86_64__) && defined(__GNUC__) && defined(__linux__) && !defined(FAIRMPI_TSAN)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
#else
  return "single build (no clones on this target or under TSan)";
#endif
}

TEST(Wire, ChecksumMatchesReferenceAtEveryAlignment) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the reference sums little-endian words";
  }
  std::cout << "wire_checksum clone: " << checksum_clone() << "\n";
  constexpr std::size_t kMaxLen = 32768;
  constexpr std::size_t kOffsets = 64;
  std::vector<std::byte> buf(kOffsets + kMaxLen);
  std::uint32_t x = 0x2545f491u;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::byte>(x);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 130; ++n) lengths.push_back(n);
  for (const std::size_t n : {4095u, 4096u, 4097u, 32768u}) lengths.push_back(n);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    for (const std::size_t n : lengths) {
      const WireHeader h = sample_header(static_cast<std::uint32_t>(n));
      const std::byte* p = buf.data() + off;
      ASSERT_EQ(wire_checksum(h, p, n), reference_checksum(h, p, n))
          << "offset " << off << " length " << n;
    }
  }
}

/// The partial sum copy_and_sum must return, built byte by byte: every
/// 4-byte little-endian unit of the zero-padded bytes, added into 64 bits.
std::uint64_t reference_partial_sum(const std::byte* p, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; i += 4) {
    std::uint32_t unit = 0;
    for (std::size_t b = 0; b < 4 && i + b < n; ++b) {
      unit |= static_cast<std::uint32_t>(std::to_integer<unsigned>(p[i + b])) << (8 * b);
    }
    sum += unit;
  }
  return sum;
}

TEST(Wire, SummedCopyMatchesReferenceAtEveryTailAndAlignment) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the references sum little-endian words";
  }
  std::cout << "copy_and_sum clone: " << checksum_clone() << "\n";
  constexpr std::size_t kHuge = (std::size_t{1} << 16) + 1000;  // past the largest pool class
  constexpr std::size_t kOffsets = 64;
  constexpr std::size_t kGuard = 16;
  std::vector<std::byte> src(kOffsets + kHuge);
  std::uint32_t x = 0x85ebca6bu;
  for (auto& b : src) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::byte>(x);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 200; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(kHuge);
  std::vector<std::byte> dst(kOffsets + kHuge + kGuard);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    const std::byte* p = src.data() + off;
    for (const std::size_t n : lengths) {
      // The kernel alone, at a destination offset of its own: the bytes
      // land, nothing past them is written, and the sum is the reference's.
      const std::size_t dst_off = (off * 7) % kOffsets;
      std::fill_n(dst.begin() + static_cast<std::ptrdiff_t>(dst_off), n + kGuard, std::byte{0xa5});
      ASSERT_EQ(copy_and_sum(dst.data() + dst_off, p, n), reference_partial_sum(p, n))
          << "offset " << off << " length " << n;
      ASSERT_EQ(std::memcmp(dst.data() + dst_off, p, n), 0) << "offset " << off << " length " << n;
      for (std::size_t g = 0; g < kGuard; ++g) {
        ASSERT_EQ(dst[dst_off + n + g], std::byte{0xa5}) << "offset " << off << " length " << n;
      }
      // Through a packet: a summed set_payload, then the stamp that adds
      // only the header to the cached sum.
      Packet pkt;
      pkt.hdr = sample_header(static_cast<std::uint32_t>(n));
      ASSERT_TRUE(pkt.set_payload(p, n, /*pool_cap=*/0, /*summed=*/true));
      if (n > kInlineBytes) {
        ASSERT_NE(pkt.heap.cached_sum(), kNoSum) << "length " << n;
      }
      stamp_checksum(pkt);
      ASSERT_EQ(pkt.hdr.csum, reference_checksum(pkt.hdr, p, n))
          << "offset " << off << " length " << n;
      ASSERT_TRUE(verify_checksum(pkt));
    }
  }
}

TEST(Wire, CachedSumNeverOutlivesAWrite) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the reference sums little-endian words";
  }
  const auto expect_stamp_matches_bytes = [](Packet& pkt, const char* what) {
    stamp_checksum(pkt);
    EXPECT_EQ(pkt.hdr.csum, reference_checksum(pkt.hdr, pkt.payload(), pkt.hdr.payload_size))
        << what << ", " << pkt.hdr.payload_size << " B";
  };
  for (const std::size_t n : {std::size_t{4096}, (std::size_t{1} << 16) + 8}) {
    std::vector<std::byte> body(n);
    for (std::size_t i = 0; i < n; ++i) body[i] = static_cast<std::byte>(i * 131 + 7);

    // A sole handle writes in place: the sum it cached is forgotten.
    Packet pkt;
    pkt.hdr = sample_header(static_cast<std::uint32_t>(n));
    ASSERT_TRUE(pkt.set_payload(body.data(), n, 0, /*summed=*/true));
    ASSERT_NE(pkt.heap.cached_sum(), kNoSum);
    expect_stamp_matches_bytes(pkt, "summed");
    const std::byte* before = pkt.payload();
    std::byte* w = pkt.mutable_payload();
    ASSERT_EQ(w, before);  // unique: no copy
    EXPECT_EQ(pkt.heap.cached_sum(), kNoSum);
    w[n / 2] ^= std::byte{0x5a};
    expect_stamp_matches_bytes(pkt, "unique write");

    // A clone of a summed packet shares the buffer and its sum.
    Packet summed;
    summed.hdr = sample_header(static_cast<std::uint32_t>(n));
    ASSERT_TRUE(summed.set_payload(body.data(), n, 0, /*summed=*/true));
    stamp_checksum(summed);
    Packet clone;
    clone_packet(summed, clone);
    clone.hdr.csum = 0;
    EXPECT_EQ(clone.heap.cached_sum(), summed.heap.cached_sum());
    stamp_checksum(clone);
    EXPECT_EQ(clone.hdr.csum, summed.hdr.csum) << n << " B";

    // A shared buffer is copied before the write: the writer re-stamps
    // over its new bytes, and the other handle keeps the old bytes and
    // their sum.
    std::byte* mine = clone.mutable_payload();
    ASSERT_NE(mine, summed.payload());
    EXPECT_EQ(clone.heap.cached_sum(), kNoSum);
    mine[1] ^= std::byte{0x01};
    expect_stamp_matches_bytes(clone, "shared write");
    EXPECT_NE(clone.hdr.csum, summed.hdr.csum);
    EXPECT_NE(summed.heap.cached_sum(), kNoSum);
    EXPECT_EQ(std::memcmp(summed.payload(), body.data(), n), 0);
    expect_stamp_matches_bytes(summed, "other handle");
  }
}

TEST(Fabric, RouteModulo) {
  Fabric fabric({4, 2});
  // Sender context i lands in receiver context i mod n_receiver.
  EXPECT_EQ(fabric.route(/*dst=*/1, /*src_ctx=*/0), 0);
  EXPECT_EQ(fabric.route(1, 1), 1);
  EXPECT_EQ(fabric.route(1, 2), 0);
  EXPECT_EQ(fabric.route(1, 3), 1);
  EXPECT_EQ(fabric.route(0, 1), 1);
  EXPECT_EQ(fabric.route(0, 5), 1);
}

TEST(Fabric, DeliverLandsInRoutedContext) {
  Fabric fabric({2, 2});
  ASSERT_TRUE(fabric.try_deliver(1, /*src_rank=*/0, /*src_ctx=*/1, make_packet(0, 42)));
  EXPECT_EQ(fabric.nic(1).context(1).delivered(), 1u);
  EXPECT_EQ(fabric.nic(1).context(0).delivered(), 0u);
  Packet out;
  ASSERT_TRUE(fabric.nic(1).context(1).rx().try_pop(out));
  EXPECT_EQ(out.hdr.seq, 42u);
  EXPECT_FALSE(fabric.nic(1).context(0).rx().try_pop(out));
}

TEST(Fabric, BackpressureWhenRingFull) {
  FabricParams params;
  params.rx_ring_entries = 4;
  Fabric fabric({1, 1}, params);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, static_cast<std::uint32_t>(i))));
  }
  EXPECT_FALSE(fabric.try_deliver(1, 0, 0, make_packet(0, 99)));
  Packet out;
  ASSERT_TRUE(fabric.nic(1).context(0).rx().try_pop(out));
  EXPECT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, 99)));
}

TEST(Fabric, BackpressuredPacketComesBackAsOffered) {
  // A packet the wire never carried must come back untouched: were the
  // fault model run first, the caller would retry a corrupted packet and
  // the retry would stamp a valid checksum over the flipped bit.
  FabricParams params;
  params.rx_ring_entries = 2;
  Fabric fabric({1, 1}, params);
  FaultParams faults;
  faults.corrupt = 1.0;
  fabric.configure_reliability(faults, /*checksums=*/true);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, static_cast<std::uint32_t>(i))));
  }
  for (const std::size_t n : {std::size_t{16}, kInlineBytes + 1, std::size_t{4096}}) {
    std::string body(n, '\0');
    for (std::size_t i = 0; i < n; ++i) body[i] = static_cast<char>(i * 31 + 7);
    Packet pkt = make_packet(0, 42, body);
    pkt.hdr.comm_id = 5;
    stamp_checksum(pkt);
    const WireHeader offered = pkt.hdr;
    const std::uint64_t corrupted = fabric.injector()->stats().corrupted.load();

    EXPECT_FALSE(fabric.try_deliver(1, 0, 0, std::move(pkt)));
    // NOLINTNEXTLINE(bugprone-use-after-move): a refused packet is handed back
    EXPECT_EQ(std::memcmp(&pkt.hdr, &offered, sizeof offered), 0) << "n=" << n;
    ASSERT_EQ(pkt.hdr.payload_size, n);
    EXPECT_EQ(std::memcmp(pkt.payload(), body.data(), n), 0) << "n=" << n;
    EXPECT_TRUE(verify_checksum(pkt)) << "n=" << n;
    EXPECT_EQ(fabric.injector()->stats().corrupted.load(), corrupted);
  }
}

TEST(Fabric, DeadLinkEatsPacketsEvenWhenLaneFull) {
  FabricParams params;
  params.rx_ring_entries = 2;
  Fabric fabric({1, 1}, params);
  fabric.configure_reliability(FaultParams{}, /*checksums=*/true, /*force_injector=*/true);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, static_cast<std::uint32_t>(i))));
  }
  EXPECT_FALSE(fabric.try_deliver(1, 0, 0, make_packet(0, 2)));
  fabric.injector()->kill_rank(1);
  EXPECT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, 3)));
  EXPECT_EQ(fabric.injector()->stats().kill_drops.load(), 1u);
}

TEST(Fabric, EndpointStampsSourceContext) {
  Fabric fabric({3, 3});
  Endpoint ep(fabric, fabric.nic(0).context(2), /*dst=*/1);
  ASSERT_TRUE(ep.try_send(make_packet(0, 5)));
  Packet out;
  ASSERT_TRUE(fabric.nic(1).context(2).rx().try_pop(out));
  EXPECT_EQ(out.hdr.src_ctx, 2u);
}

TEST(Fabric, SelfDeliveryWorks) {
  Fabric fabric({2});
  ASSERT_TRUE(fabric.try_deliver(0, /*src_rank=*/0, /*src_ctx=*/1, make_packet(0, 3)));
  Packet out;
  ASSERT_TRUE(fabric.nic(0).context(1).rx().try_pop(out));
  EXPECT_EQ(out.hdr.seq, 3u);
}

TEST(Fabric, AsymmetricContextCounts) {
  // 8-context sender talking to a 1-context receiver: everything funnels
  // into ring 0 (the paper's single-instance receiver).
  Fabric fabric({8, 1});
  for (int ctx = 0; ctx < 8; ++ctx) {
    ASSERT_TRUE(fabric.try_deliver(1, 0, ctx, make_packet(0, static_cast<std::uint32_t>(ctx))));
  }
  EXPECT_EQ(fabric.nic(1).context(0).delivered(), 8u);
}

}  // namespace
}  // namespace fairmpi::fabric
