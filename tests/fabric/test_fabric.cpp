#include "fairmpi/fabric/fabric.hpp"

#include <gtest/gtest.h>

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
  std::vector<unsigned char> bytes(sizeof h + n);
  std::memcpy(bytes.data(), &h, sizeof h);
  if (n != 0) std::memcpy(bytes.data() + sizeof h, payload, n);
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

/// The wire_checksum clone the loader picked on this CPU (wire.cpp's
/// FAIRMPI_VECTOR_CLONES), for the log.
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
