#include "fairmpi/match/match_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "fairmpi/common/rng.hpp"

namespace fairmpi::match {
namespace {

using p2p::kAnySource;
using p2p::kAnyTag;
using p2p::Request;
using spc::Counter;

fabric::Packet make_eager(int src, std::uint32_t seq, int tag,
                          const std::string& payload = {}, std::uint32_t comm = 0) {
  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(src);
  pkt.hdr.comm_id = comm;
  pkt.hdr.tag = tag;
  pkt.hdr.seq = seq;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

class MatchTest : public ::testing::Test {
 protected:
  spc::CounterSet spc_;
};

TEST_F(MatchTest, PostedThenIncomingDelivers) {
  MatchEngine eng(2, false, spc_);
  char buf[16] = {};
  Request req;
  req.init_recv(buf, sizeof buf, /*src=*/1, /*tag=*/7);
  EXPECT_FALSE(eng.post(&req));
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 7, "hi")), 1u);
  ASSERT_TRUE(req.done());
  EXPECT_EQ(req.status().source, 1);
  EXPECT_EQ(req.status().tag, 7);
  EXPECT_EQ(req.status().size, 2u);
  EXPECT_FALSE(req.status().truncated);
  EXPECT_EQ(std::memcmp(buf, "hi", 2), 0);
}

TEST_F(MatchTest, IncomingThenPostedMatchesUnexpected) {
  MatchEngine eng(2, false, spc_);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 7, "yo")), 0u);
  EXPECT_EQ(eng.unexpected_count(), 1u);
  EXPECT_EQ(spc_.get(Counter::kUnexpectedMessages), 1u);
  char buf[16] = {};
  Request req;
  req.init_recv(buf, sizeof buf, 1, 7);
  EXPECT_TRUE(eng.post(&req));
  EXPECT_TRUE(req.done());
  EXPECT_EQ(eng.unexpected_count(), 0u);
  EXPECT_EQ(std::memcmp(buf, "yo", 2), 0);
}

TEST_F(MatchTest, TagFilterKeepsNonMatchingUnexpected) {
  MatchEngine eng(2, false, spc_);
  eng.incoming(make_eager(1, 0, 1));
  char buf[4];
  Request req;
  req.init_recv(buf, sizeof buf, 1, /*tag=*/2);
  EXPECT_FALSE(eng.post(&req));
  // Next in-sequence message with tag 2 matches the posted request even
  // though an older tag-1 message is still queued.
  EXPECT_EQ(eng.incoming(make_eager(1, 1, 2)), 1u);
  EXPECT_TRUE(req.done());
  EXPECT_EQ(eng.unexpected_count(), 1u);
}

TEST_F(MatchTest, OutOfSequenceIsBufferedUntilGapFills) {
  MatchEngine eng(2, false, spc_);
  char b1[4], b2[4], b3[4];
  Request r1, r2, r3;
  r1.init_recv(b1, 4, 1, 5);
  r2.init_recv(b2, 4, 1, 5);
  r3.init_recv(b3, 4, 1, 5);
  eng.post(&r1);
  eng.post(&r2);
  eng.post(&r3);

  // Arrive 2, 1, 0 — nothing can match until seq 0 shows up.
  EXPECT_EQ(eng.incoming(make_eager(1, 2, 5, "c")), 0u);
  EXPECT_EQ(eng.incoming(make_eager(1, 1, 5, "b")), 0u);
  EXPECT_EQ(eng.reorder_buffered(), 2u);
  EXPECT_EQ(spc_.get(Counter::kOutOfSequence), 2u);
  EXPECT_FALSE(r1.done());

  // Seq 0 arrives: all three drain in one call, in seq order.
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 5, "a")), 3u);
  EXPECT_EQ(eng.reorder_buffered(), 0u);
  EXPECT_EQ(b1[0], 'a');
  EXPECT_EQ(b2[0], 'b');
  EXPECT_EQ(b3[0], 'c');
  EXPECT_EQ(spc_.get(Counter::kOosBufferPeak), 2u);
}

TEST_F(MatchTest, FifoMatchOrderWithinSeqStream) {
  MatchEngine eng(2, false, spc_);
  // Two receives posted with same filters: earlier post matches earlier seq.
  char b1[4] = {}, b2[4] = {};
  Request r1, r2;
  r1.init_recv(b1, 4, 1, 9);
  r2.init_recv(b2, 4, 1, 9);
  eng.post(&r1);
  eng.post(&r2);
  eng.incoming(make_eager(1, 0, 9, "1"));
  eng.incoming(make_eager(1, 1, 9, "2"));
  EXPECT_EQ(b1[0], '1');
  EXPECT_EQ(b2[0], '2');
}

TEST_F(MatchTest, AnyTagMatchesFirstAvailable) {
  MatchEngine eng(2, false, spc_);
  char buf[4] = {};
  Request req;
  req.init_recv(buf, 4, 1, kAnyTag);
  eng.post(&req);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 1234)), 1u);
  EXPECT_EQ(req.status().tag, 1234);
}

TEST_F(MatchTest, AnySourceMatchesAcrossPeers) {
  MatchEngine eng(4, false, spc_);
  char buf[4] = {};
  Request req;
  req.init_recv(buf, 4, kAnySource, 3);
  eng.post(&req);
  EXPECT_EQ(eng.incoming(make_eager(2, 0, 3, "x")), 1u);
  EXPECT_EQ(req.status().source, 2);
}

TEST_F(MatchTest, AnySourcePicksEarliestArrivalAmongUnexpected) {
  MatchEngine eng(4, false, spc_);
  eng.incoming(make_eager(3, 0, 8, "late-peer-first"));
  eng.incoming(make_eager(1, 0, 8, "second"));
  char buf[32] = {};
  Request req;
  req.init_recv(buf, sizeof buf, kAnySource, 8);
  EXPECT_TRUE(eng.post(&req));
  EXPECT_EQ(req.status().source, 3);  // earliest arrival wins
}

TEST_F(MatchTest, PostOrderRespectedBetweenSpecificAndWildcardQueues) {
  MatchEngine eng(2, false, spc_);
  char b1[4] = {}, b2[4] = {};
  Request wildcard, specific;
  wildcard.init_recv(b1, 4, kAnySource, 5);
  specific.init_recv(b2, 4, 1, 5);
  eng.post(&wildcard);  // posted first
  eng.post(&specific);
  eng.incoming(make_eager(1, 0, 5, "A"));
  EXPECT_TRUE(wildcard.done());
  EXPECT_FALSE(specific.done());

  // And the reverse order.
  MatchEngine eng2(2, false, spc_);
  Request wildcard2, specific2;
  wildcard2.init_recv(b1, 4, kAnySource, 5);
  specific2.init_recv(b2, 4, 1, 5);
  eng2.post(&specific2);  // posted first
  eng2.post(&wildcard2);
  eng2.incoming(make_eager(1, 0, 5, "B"));
  EXPECT_TRUE(specific2.done());
  EXPECT_FALSE(wildcard2.done());
}

TEST_F(MatchTest, TruncationFlaggedAndClamped) {
  MatchEngine eng(2, false, spc_);
  char small[3] = {};
  Request req;
  req.init_recv(small, sizeof small, 1, 1);
  eng.post(&req);
  eng.incoming(make_eager(1, 0, 1, "abcdefgh"));
  ASSERT_TRUE(req.done());
  EXPECT_TRUE(req.status().truncated);
  EXPECT_EQ(req.status().size, 8u);  // sent size reported
  EXPECT_EQ(std::memcmp(small, "abc", 3), 0);
}

TEST_F(MatchTest, LargePayloadThroughHeapPath) {
  MatchEngine eng(2, false, spc_);
  const std::string big(8192, 'm');
  std::vector<char> buf(8192);
  Request req;
  req.init_recv(buf.data(), buf.size(), 1, 1);
  eng.post(&req);
  eng.incoming(make_eager(1, 0, 1, big));
  ASSERT_TRUE(req.done());
  EXPECT_EQ(std::memcmp(buf.data(), big.data(), big.size()), 0);
}

TEST_F(MatchTest, OvertakingSkipsSequenceValidation) {
  MatchEngine eng(2, true, spc_);
  char b1[4] = {}, b2[4] = {};
  Request r1, r2;
  r1.init_recv(b1, 4, 1, 5);
  r2.init_recv(b2, 4, 1, 5);
  eng.post(&r1);
  eng.post(&r2);
  // Reverse seq order: with overtaking both match immediately, in arrival
  // order, and nothing is buffered.
  EXPECT_EQ(eng.incoming(make_eager(1, 1, 5, "X")), 1u);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 5, "Y")), 1u);
  EXPECT_EQ(b1[0], 'X');
  EXPECT_EQ(b2[0], 'Y');
  EXPECT_EQ(spc_.get(Counter::kOutOfSequence), 0u);
  EXPECT_EQ(eng.reorder_buffered(), 0u);
}

TEST_F(MatchTest, SeparateSeqStreamsPerPeer) {
  MatchEngine eng(3, false, spc_);
  // Peer 1 and peer 2 each start at seq 0; interleaving is fine.
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 1, "a")), 0u);
  EXPECT_EQ(eng.incoming(make_eager(2, 0, 1, "b")), 0u);
  EXPECT_EQ(spc_.get(Counter::kOutOfSequence), 0u);
  EXPECT_EQ(eng.unexpected_count(), 2u);
}

TEST_F(MatchTest, MatchTimeAccumulates) {
  MatchEngine eng(2, false, spc_);
  for (std::uint32_t i = 0; i < 100; ++i) eng.incoming(make_eager(1, i, 1));
  EXPECT_GT(spc_.get(Counter::kMatchTimeNs), 0u);
  EXPECT_EQ(spc_.get(Counter::kMatchAttempts), 100u);
}

// Deterministic worst case for the reorder structures: deliver seq 1..N-1
// first with seq 0 withheld, so everything parks. The ring grows from 64 to
// 512 slots as the deltas pass 63, 127 and 255; a second epoch at base 300
// repeats the pattern with expected_seq no longer a multiple of the
// capacity, so ring indices wrap around the array. The final in-order
// packet must drain every parked packet in one incoming() call. (The spill
// map takes only deltas >= kReorderMax; see ReverseArrivalAtEveryRingDepth.)
TEST_F(MatchTest, ReorderRingWraparoundAndSpillFallback) {
  constexpr std::uint32_t kPerEpoch = 300;  // > kReorderWindow => spill used
  constexpr int kEpochs = 2;
  MatchEngine eng(2, false, spc_);

  std::vector<Request> reqs(kPerEpoch * kEpochs);
  std::vector<std::uint32_t> bufs(kPerEpoch * kEpochs, 0xffffffffu);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1, 5);
    eng.post(&reqs[i]);
  }

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const std::uint32_t base = static_cast<std::uint32_t>(epoch) * kPerEpoch;
    for (std::uint32_t d = 1; d < kPerEpoch; ++d) {
      const std::uint32_t seq = base + d;
      std::uint32_t payload = seq;
      EXPECT_EQ(eng.incoming(make_eager(
                    1, seq, 5, std::string(reinterpret_cast<char*>(&payload), 4))),
                0u);
    }
    EXPECT_EQ(eng.reorder_buffered(), kPerEpoch - 1);
    std::uint32_t payload = base;
    EXPECT_EQ(eng.incoming(make_eager(
                  1, base, 5, std::string(reinterpret_cast<char*>(&payload), 4))),
              kPerEpoch);
    EXPECT_EQ(eng.reorder_buffered(), 0u);
  }

  EXPECT_EQ(spc_.get(Counter::kOutOfSequence),
            static_cast<std::uint64_t>(kEpochs) * (kPerEpoch - 1));
  EXPECT_EQ(spc_.get(Counter::kOosBufferPeak), kPerEpoch - 1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(reqs[i].done());
    EXPECT_EQ(bufs[i], static_cast<std::uint32_t>(i));
  }
}

std::string seq_payload(std::uint32_t seq) {
  return std::string(reinterpret_cast<const char*>(&seq), sizeof seq);
}

// Reverse-order arrival `depth` deep: seqs depth..1 park behind the hole at
// 0, then seq 0 drains them all. The depths straddle each ring growth step,
// the largest ring (kReorderMax) and the spill map beyond it.
TEST_F(MatchTest, ReverseArrivalAtEveryRingDepthDeliversInOrderOnce) {
  for (const std::uint32_t depth : {63u, 64u, 65u, 511u, 4095u, 4096u, 4097u}) {
    spc::CounterSet spc;
    MatchEngine eng(2, false, spc);
    std::vector<Request> reqs(depth + 1);
    std::vector<std::uint32_t> bufs(depth + 1, ~0u);
    for (std::uint32_t i = 0; i <= depth; ++i) {
      reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1, 5);
      ASSERT_FALSE(eng.post(&reqs[i]));
    }
    for (std::uint32_t seq = depth; seq >= 1; --seq) {
      ASSERT_EQ(eng.incoming(make_eager(1, seq, 5, seq_payload(seq))), 0u) << depth;
    }
    EXPECT_EQ(eng.reorder_buffered(), depth);
    EXPECT_EQ(eng.incoming(make_eager(1, 0, 5, seq_payload(0))), depth + 1) << depth;
    EXPECT_EQ(eng.reorder_buffered(), 0u) << depth;
    EXPECT_EQ(eng.unexpected_count(), 0u) << depth;
    EXPECT_EQ(spc.get(Counter::kOosBufferPeak), depth);
    EXPECT_EQ(spc.get(Counter::kMessagesReceived), depth + 1u);
    for (std::uint32_t i = 0; i <= depth; ++i) {
      ASSERT_TRUE(reqs[i].done()) << depth;
      ASSERT_EQ(bufs[i], i) << depth;
    }
  }
}

// Reliable mode: a retransmit of a packet that parked before the ring grew,
// or that spilled and has since come within the ring's reach, is a
// duplicate. It is discarded and counted, never parked a second time.
TEST_F(MatchTest, DuplicateOfParkedPacketSurvivesRingGrowth) {
  MatchEngine eng(2, false, spc_, /*reliable=*/true);
  Admission adm = Admission::kAdmitted;
  eng.incoming(make_eager(1, 10, 5), &adm);  // ring: 64 slots
  EXPECT_EQ(adm, Admission::kAdmitted);
  eng.incoming(make_eager(1, 200, 5), &adm);  // grows to 256
  eng.incoming(make_eager(1, 5000, 5), &adm);  // beyond kReorderMax: spill
  ASSERT_EQ(eng.reorder_buffered(), 3u);
  eng.incoming(make_eager(1, 10, 5), &adm);
  EXPECT_EQ(adm, Admission::kDuplicate);
  eng.incoming(make_eager(1, 200, 5), &adm);
  EXPECT_EQ(adm, Admission::kDuplicate);
  EXPECT_EQ(spc_.get(Counter::kDupDiscards), 2u);
  EXPECT_EQ(eng.reorder_buffered(), 3u);

  // Move the frontier to 4990: seq 5000 is now within the ring's reach,
  // but it still sits in the spill map.
  for (std::uint32_t seq = 0; seq < 4990; ++seq) {
    if (seq != 10 && seq != 200) eng.incoming(make_eager(1, seq, 5));
  }
  ASSERT_EQ(eng.reorder_buffered(), 1u);
  eng.incoming(make_eager(1, 5000, 5), &adm);
  EXPECT_EQ(adm, Admission::kDuplicate);
  EXPECT_EQ(spc_.get(Counter::kDupDiscards), 3u);
  EXPECT_EQ(eng.reorder_buffered(), 1u);
  for (std::uint32_t seq = 4990; seq < 5000; ++seq) eng.incoming(make_eager(1, seq, 5));
  EXPECT_EQ(eng.reorder_buffered(), 0u);
  EXPECT_EQ(eng.unexpected_count(), 5001u);  // every seq exactly once
}

// A dead source's parked packets can never drain: fail_source drops the
// ring (grown to kReorderMax) and the spill beyond it.
TEST_F(MatchTest, FailSourceEmptiesRingAndSpill) {
  MatchEngine eng(2, false, spc_);
  constexpr std::uint32_t kParked = kReorderMax + 100;
  for (std::uint32_t seq = kParked; seq >= 1; --seq) {
    eng.incoming(make_eager(1, seq, 5, std::string(100, 'x')));  // pooled payloads
  }
  ASSERT_EQ(eng.reorder_buffered(), kParked);
  EXPECT_EQ(eng.fail_source(1), 0u);
  EXPECT_EQ(eng.reorder_buffered(), 0u);
  Request req;
  std::uint32_t buf = 0;
  req.init_recv(&buf, sizeof buf, 1, 5);
  EXPECT_TRUE(eng.post(&req));  // fails fast: nothing can arrive
  EXPECT_TRUE(req.failed());
}

// Two receivers share one communicator and post 128-deep windows for
// different tags back to back; arrivals then alternate between the tags.
// Each tag has its own bin, so every arrival finds its receive at the head
// of the bin: the posted search inspects exactly one entry per message, not
// the other tag's whole window.
TEST_F(MatchTest, InterleavedTagsInspectOneEntry) {
  constexpr int kTagA = 10;
  constexpr int kTagB = 11;
  static_assert(tag_bin(kTagA) != tag_bin(kTagB));
  constexpr std::uint32_t kWindow = 128;
  MatchEngine eng(2, false, spc_);
  std::vector<Request> reqs(2 * kWindow);
  std::vector<std::uint32_t> bufs(2 * kWindow, ~0u);
  for (std::uint32_t i = 0; i < 2 * kWindow; ++i) {
    reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1, i < kWindow ? kTagA : kTagB);
    ASSERT_FALSE(eng.post(&reqs[i]));
  }
  const std::uint64_t before = spc_.get(Counter::kPostedQueueDepth);
  for (std::uint32_t seq = 0; seq < 2 * kWindow; ++seq) {
    const std::string payload(reinterpret_cast<const char*>(&seq), sizeof seq);
    ASSERT_EQ(eng.incoming(make_eager(1, seq, seq % 2 == 0 ? kTagA : kTagB, payload)), 1u);
  }
  EXPECT_EQ(spc_.get(Counter::kPostedQueueDepth) - before, 2 * kWindow);
  for (std::uint32_t i = 0; i < kWindow; ++i) {
    ASSERT_TRUE(reqs[i].done() && reqs[kWindow + i].done());
    EXPECT_EQ(bufs[i], 2 * i);                // i-th tag-A message
    EXPECT_EQ(bufs[kWindow + i], 2 * i + 1);  // i-th tag-B message
  }
}

// The unexpected-first mirror: two 128-message bursts for different tags
// arrive back to back, then receives alternate between the tags. Each post
// inspects exactly one unexpected entry.
TEST_F(MatchTest, InterleavedTagsInspectOneUnexpectedEntry) {
  constexpr int kTagA = 10;
  constexpr int kTagB = 11;
  constexpr std::uint32_t kWindow = 128;
  MatchEngine eng(2, false, spc_);
  for (std::uint32_t seq = 0; seq < 2 * kWindow; ++seq) {
    const std::string payload(reinterpret_cast<const char*>(&seq), sizeof seq);
    ASSERT_EQ(eng.incoming(make_eager(1, seq, seq < kWindow ? kTagA : kTagB, payload)), 0u);
  }
  std::vector<Request> reqs(2 * kWindow);
  std::vector<std::uint32_t> bufs(2 * kWindow, ~0u);
  const std::uint64_t before = spc_.get(Counter::kUnexpectedQueueDepth);
  for (std::uint32_t i = 0; i < 2 * kWindow; ++i) {
    reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1, i % 2 == 0 ? kTagA : kTagB);
    ASSERT_TRUE(eng.post(&reqs[i]));
  }
  EXPECT_EQ(spc_.get(Counter::kUnexpectedQueueDepth) - before, 2 * kWindow);
  EXPECT_EQ(eng.unexpected_count(), 0u);
  for (std::uint32_t i = 0; i < 2 * kWindow; ++i) {
    EXPECT_EQ(bufs[i], i / 2 + (i % 2 == 0 ? 0 : kWindow));
  }
}

// Property test: random arrival permutation + random wildcard mix still
// delivers every message exactly once, and (without overtaking) the i-th
// posted identical-filter receive gets the i-th sequence number.
class MatchPermutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchPermutation, RandomArrivalOrderAlwaysDeliversAll) {
  spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  Xoshiro256 rng(GetParam());
  constexpr int kMessages = 200;

  std::vector<Request> reqs(kMessages);
  std::vector<std::uint32_t> bufs(kMessages, 0);
  for (int i = 0; i < kMessages; ++i) {
    const bool wildcard_tag = rng.bounded(4) == 0;
    reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1,
                      wildcard_tag ? kAnyTag : 42);
    eng.post(&reqs[i]);
  }

  std::vector<std::uint32_t> seqs(kMessages);
  std::iota(seqs.begin(), seqs.end(), 0);
  for (std::size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.bounded(i)]);
  }
  std::size_t delivered = 0;
  for (const std::uint32_t seq : seqs) {
    std::uint32_t payload = seq;
    delivered += eng.incoming(
        make_eager(1, seq, 42, std::string(reinterpret_cast<char*>(&payload), 4)));
  }
  EXPECT_EQ(delivered, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(eng.reorder_buffered(), 0u);
  EXPECT_EQ(eng.unexpected_count(), 0u);
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(reqs[i].done());
    // Non-overtaking: matching order == seq order == post order.
    EXPECT_EQ(bufs[i], static_cast<std::uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchPermutation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace fairmpi::match
