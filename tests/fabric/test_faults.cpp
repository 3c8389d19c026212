// Unit tests for the seeded fault injector: deterministic fates, the fault
// model's per-fault contracts (drop/dup/delay/reorder/corrupt), packet
// conservation, and checksum detection of injected corruption.
#include "fairmpi/fabric/faults.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace fairmpi::fabric {
namespace {

Packet make_packet(std::uint32_t seq, const std::string& payload = "payload") {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = 0;
  pkt.hdr.tag = 7;
  pkt.hdr.seq = seq;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

/// Compressed fate of one injection: how many packets came out, which one
/// was the caller's, and the seq numbers emitted (order matters).
struct Fate {
  std::size_t n;
  int primary;
  std::vector<std::uint32_t> seqs;

  bool operator==(const Fate&) const = default;
};

std::vector<Fate> run_sequence(FaultInjector& inj, int count) {
  std::vector<Fate> fates;
  for (int i = 0; i < count; ++i) {
    FaultInjector::Batch batch;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    Fate f{batch.n, batch.primary, {}};
    for (std::size_t k = 0; k < batch.n; ++k) f.seqs.push_back(batch.pkts[k].hdr.seq);
    fates.push_back(std::move(f));
  }
  return fates;
}

TEST(FaultInjector, SameSeedSameFates) {
  FaultParams params;
  params.drop = 0.1;
  params.dup = 0.1;
  params.delay = 0.1;
  params.reorder = 0.1;
  params.seed = 42;

  FaultInjector a(2, params);
  FaultInjector b(2, params);
  EXPECT_EQ(run_sequence(a, 500), run_sequence(b, 500));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultParams params;
  params.drop = 0.2;
  params.dup = 0.2;
  params.seed = 1;
  FaultInjector a(2, params);
  params.seed = 2;
  FaultInjector b(2, params);
  EXPECT_NE(run_sequence(a, 500), run_sequence(b, 500));
}

TEST(FaultInjector, LinksHaveIndependentStreams) {
  FaultParams params;
  params.drop = 0.5;
  params.seed = 7;
  FaultInjector inj(3, params);
  // Same per-link packet order on two different links: the forked streams
  // must not be identical copies of each other.
  std::vector<int> fates01;
  std::vector<int> fates12;
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Batch b01;
    FaultInjector::Batch b12;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), b01);
    inj.process(1, 2, make_packet(static_cast<std::uint32_t>(i)), b12);
    fates01.push_back(b01.primary);
    fates12.push_back(b12.primary);
  }
  EXPECT_NE(fates01, fates12);
}

TEST(FaultInjector, ZeroProbabilitiesPassThrough) {
  FaultParams params;  // all zero
  EXPECT_FALSE(params.any());
  FaultInjector inj(2, params);
  for (int i = 0; i < 100; ++i) {
    FaultInjector::Batch batch;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    ASSERT_EQ(batch.n, 1u);
    ASSERT_EQ(batch.primary, 0);
    EXPECT_EQ(batch.pkts[0].hdr.seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(std::memcmp(batch.pkts[0].payload(), "payload", 7), 0);
  }
  EXPECT_EQ(inj.stats().injected.load(), 100u);
  EXPECT_EQ(inj.stats().dropped.load(), 0u);
  EXPECT_EQ(inj.stats().duplicated.load(), 0u);
  EXPECT_EQ(inj.stats().delayed.load(), 0u);
  EXPECT_EQ(inj.stats().corrupted.load(), 0u);
  EXPECT_EQ(inj.held(), 0u);
}

TEST(FaultInjector, CertainDropSwallowsEverything) {
  FaultParams params;
  params.drop = 1.0;
  FaultInjector inj(2, params);
  for (int i = 0; i < 50; ++i) {
    FaultInjector::Batch batch;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    EXPECT_EQ(batch.n, 0u);
    EXPECT_EQ(batch.primary, -1);
  }
  EXPECT_EQ(inj.stats().dropped.load(), 50u);
}

TEST(FaultInjector, CertainDupSharesImmutablePayload) {
  FaultParams params;
  params.dup = 1.0;
  FaultInjector inj(2, params);
  // Heap payload: the duplicate shares the original's buffer.
  const std::string big(kInlineBytes + 32, 'd');
  enable_payload_pool_accounting();
  for (const bool drop_original_first : {true, false}) {
    Packet pkt = make_packet(9, big);
    const std::uint64_t before = payload_pool_stats().in_use_bytes;
    FaultInjector::Batch batch;
    inj.process(0, 1, std::move(pkt), batch);
    ASSERT_EQ(batch.n, 2u);
    ASSERT_EQ(batch.primary, 0);
    EXPECT_EQ(batch.pkts[0].hdr.seq, 9u);
    EXPECT_EQ(batch.pkts[1].hdr.seq, 9u);
    ASSERT_NE(batch.pkts[0].payload(), nullptr);
    ASSERT_NE(batch.pkts[1].payload(), nullptr);
    EXPECT_EQ(std::memcmp(batch.pkts[0].payload(), big.data(), big.size()), 0);
    EXPECT_EQ(std::memcmp(batch.pkts[1].payload(), big.data(), big.size()), 0);
    EXPECT_EQ(batch.pkts[0].payload(), batch.pkts[1].payload());
    EXPECT_EQ(payload_pool_stats().in_use_bytes, before);  // the dup charged nothing
    // Either packet may be dropped first; the other's bytes stay intact.
    Packet& first = batch.pkts[drop_original_first ? 0 : 1];
    Packet& second = batch.pkts[drop_original_first ? 1 : 0];
    { Packet sink = std::move(first); }
    EXPECT_EQ(std::memcmp(second.payload(), big.data(), big.size()), 0);
    { Packet sink = std::move(second); }
    EXPECT_EQ(payload_pool_stats().in_use_bytes, before - payload_charge(big.size()));
  }
  EXPECT_EQ(inj.stats().duplicated.load(), 2u);
}

TEST(FaultInjector, CorruptNeverTouchesSharedPayload) {
  // A tracked retransmit master shares the wire packet's buffer; a payload
  // flip on the wire packet must land on a private copy.
  FaultParams params;
  params.corrupt = 1.0;
  params.seed = 0xbad;
  FaultInjector inj(2, params);
  std::string body(4096, '\0');
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>(i * 7 + 1);
  int payload_flips = 0;
  for (int i = 0; i < 64; ++i) {
    Packet master = make_packet(static_cast<std::uint32_t>(i), body);
    stamp_checksum(master);
    Packet wire;
    clone_packet(master, wire);
    ASSERT_EQ(wire.payload(), master.payload());  // shared, as tracked
    FaultInjector::Batch batch;
    inj.process(0, 1, std::move(wire), batch);
    ASSERT_EQ(batch.n, 1u);
    EXPECT_FALSE(verify_checksum(batch.pkts[0])) << "packet " << i;
    if (batch.pkts[0].payload() != master.payload()) ++payload_flips;
    EXPECT_TRUE(verify_checksum(master)) << "packet " << i;
    EXPECT_EQ(std::memcmp(master.payload(), body.data(), body.size()), 0) << "packet " << i;
  }
  // 4096 payload bytes against 28 header bytes: the payload is hit.
  EXPECT_GT(payload_flips, 0);
}

TEST(FaultInjector, DelayParksWithinHoldbackBound) {
  FaultParams params;
  params.delay = 1.0;
  FaultInjector inj(2, params);
  std::size_t emitted = 0;
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Batch batch;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    emitted += batch.n;
    EXPECT_LE(inj.held(), FaultInjector::kHoldback);
  }
  // Count-based release: most parked packets must have come back out.
  EXPECT_GT(inj.stats().delayed.load(), 0u);
  EXPECT_GT(inj.stats().released.load(), 0u);
  // Conservation: every injected packet is emitted, still parked or dropped.
  EXPECT_EQ(emitted + inj.held() + inj.stats().dropped.load(), 200u);
}

TEST(FaultInjector, ConservationUnderMixedFaults) {
  FaultParams params;
  params.drop = 0.1;
  params.dup = 0.1;
  params.delay = 0.1;
  params.reorder = 0.1;
  params.seed = 0xfeed;
  FaultInjector inj(2, params);
  std::size_t emitted = 0;
  for (int i = 0; i < 1000; ++i) {
    FaultInjector::Batch batch;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    emitted += batch.n;
  }
  const auto& s = inj.stats();
  EXPECT_EQ(s.injected.load(), 1000u);
  EXPECT_GT(s.dropped.load(), 0u);
  EXPECT_GT(s.duplicated.load(), 0u);
  EXPECT_GT(s.reordered.load(), 0u);
  // emitted = injected + dup clones − dropped − still parked.
  EXPECT_EQ(emitted, 1000u + s.duplicated.load() - s.dropped.load() - inj.held());
}

TEST(FaultInjector, CorruptionIsDetectedByChecksum) {
  // Invariant: every single-bit flip corrupt_packet can make is detected.
  // Its flip space is every header bit except the 4-byte payload_size
  // field, plus every payload bit; sizes straddle the 8-byte word, the
  // inline/heap boundary and a page.
  constexpr std::size_t kHdr = sizeof(WireHeader);
  const std::size_t size_off = offsetof(WireHeader, payload_size);
  for (const std::size_t n : {0, 1, 7, 8, 63, 64, 65, 4095, 4096, 4097}) {
    std::string body(n, '\0');
    for (std::size_t i = 0; i < n; ++i) body[i] = static_cast<char>(i * 131 + 7);
    Packet pkt = make_packet(0x2a, body);
    pkt.hdr.comm_id = 0x12345;
    pkt.hdr.imm = 0xfeedfacecafebeefULL;
    stamp_checksum(pkt);
    ASSERT_TRUE(verify_checksum(pkt));
    std::size_t missed = 0;
    for (std::size_t byte = 0; byte < kHdr + n; ++byte) {
      if (byte >= size_off && byte < size_off + sizeof(std::uint32_t)) continue;
      for (int bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<unsigned char>(1u << bit);
        unsigned char* p = byte < kHdr
                               ? reinterpret_cast<unsigned char*>(&pkt.hdr) + byte
                               : reinterpret_cast<unsigned char*>(pkt.mutable_payload()) +
                                     (byte - kHdr);
        *p ^= mask;
        if (verify_checksum(pkt)) ++missed;
        *p ^= mask;
      }
    }
    EXPECT_EQ(missed, 0u) << "payload " << n << " B";
    EXPECT_TRUE(verify_checksum(pkt));
  }

  // And through the injector itself: corrupt = 1.0 must never slip by.
  FaultParams params;
  params.corrupt = 1.0;
  params.seed = 0xc0;
  FaultInjector inj(2, params);
  for (int i = 0; i < 100; ++i) {
    // Stamp before injection, exactly as Fabric::try_deliver does.
    Packet pkt = make_packet(static_cast<std::uint32_t>(i), "corruptible payload");
    stamp_checksum(pkt);
    FaultInjector::Batch batch;
    inj.process(0, 1, std::move(pkt), batch);
    ASSERT_EQ(batch.n, 1u);
    EXPECT_FALSE(verify_checksum(batch.pkts[0])) << "packet " << i;
  }
  EXPECT_EQ(inj.stats().corrupted.load(), 100u);
}

TEST(FaultInjector, KillRankAtEatsFromTheNthInjection) {
  // kill_rank_at(r, N) pins the death to an injection *index*: the charge
  // happens before the liveness check, so packet N itself is the first one
  // the wire eats. No other faults configured — every fate is the kill's.
  FaultParams params;
  params.seed = 11;
  FaultInjector inj(2, params);
  inj.kill_rank_at(0, 10);

  for (int i = 1; i <= 20; ++i) {
    FaultInjector::Batch batch;
    const bool was_dead = inj.rank_dead(0);
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    if (i < 10) {
      EXPECT_FALSE(was_dead) << "packet " << i;
      ASSERT_EQ(batch.n, 1u) << "packet " << i;
      EXPECT_EQ(batch.primary, 0);
    } else {
      ASSERT_EQ(batch.n, 0u) << "packet " << i;
      EXPECT_EQ(batch.primary, -1);
      EXPECT_TRUE(inj.rank_dead(0));
    }
  }
  const auto& s = inj.stats();
  EXPECT_EQ(s.injected.load(), 9u);     // dead-rank packets never count
  EXPECT_EQ(s.kill_drops.load(), 11u);  // packets 10..20
}

TEST(FaultInjector, KillIsDeterministicAcrossSeedReforks) {
  // The rank-kill must compose with the probabilistic faults without
  // perturbing determinism: two injectors with the same seed and the same
  // kill point observe identical fates for the whole sequence.
  FaultParams params;
  params.drop = 0.1;
  params.dup = 0.1;
  params.delay = 0.1;
  params.reorder = 0.1;
  params.seed = 42;

  FaultInjector a(2, params);
  FaultInjector b(2, params);
  a.kill_rank_at(0, 100);
  b.kill_rank_at(0, 100);
  EXPECT_EQ(run_sequence(a, 300), run_sequence(b, 300));
  EXPECT_EQ(a.stats().kill_drops.load(), b.stats().kill_drops.load());
  EXPECT_EQ(a.stats().injected.load(), b.stats().injected.load());
  EXPECT_GT(a.stats().kill_drops.load(), 0u);
}

TEST(FaultInjector, DeadDestinationEatsInboundPackets) {
  // Permanent link-down is bidirectional: packets *to* a corpse vanish too,
  // and the sender stays alive.
  FaultParams params;
  params.seed = 3;
  FaultInjector inj(2, params);
  inj.kill_rank(1);
  EXPECT_TRUE(inj.rank_dead(1));
  EXPECT_FALSE(inj.rank_dead(0));

  for (int i = 0; i < 5; ++i) {
    FaultInjector::Batch batch;
    inj.process(0, 1, make_packet(static_cast<std::uint32_t>(i)), batch);
    EXPECT_EQ(batch.n, 0u);
  }
  EXPECT_FALSE(inj.rank_dead(0));  // sending into the void is not fatal
  EXPECT_EQ(inj.stats().kill_drops.load(), 5u);
  EXPECT_EQ(inj.stats().injected.load(), 0u);
}

}  // namespace
}  // namespace fairmpi::fabric
