// Unit tests for the ack/retransmit tracker: key round-trips, the
// claim-then-confirm retry accounting (sweeps claim entries; only confirmed
// retransmits charge the budget and back off), retry exhaustion, and
// ranged acks (the receiver's run merging and the tracker's ack_range).
#include "fairmpi/p2p/reliability.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/p2p/rendezvous.hpp"

namespace fairmpi::p2p {
namespace {

using fabric::Opcode;
using fabric::Packet;

Packet make_packet(std::uint32_t seq, std::uint64_t imm = 0,
                   const std::string& payload = "retransmit me") {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = 0;
  pkt.hdr.comm_id = 1;
  pkt.hdr.tag = 3;
  pkt.hdr.seq = seq;
  pkt.hdr.imm = imm;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

TEST(PacketKey, AckEchoRoundTrip) {
  // Build the ack the way Rank::flush_acks does: acked opcode rides in tag,
  // the ack's sender is the original destination.
  const int dst = 5;
  const Packet orig = make_packet(77, 0xabcdef);
  fabric::WireHeader ack;
  ack.opcode = Opcode::kAck;
  ack.src_rank = static_cast<std::uint16_t>(dst);
  ack.comm_id = orig.hdr.comm_id;
  ack.tag = static_cast<std::int32_t>(orig.hdr.opcode);
  ack.seq = orig.hdr.seq;
  ack.imm = orig.hdr.imm;
  EXPECT_EQ(key_of_ack(ack), key_of(dst, orig.hdr));
}

TEST(PacketKey, DistinguishesPacketKinds) {
  Packet eager = make_packet(7);
  Packet rts = make_packet(7);
  rts.hdr.opcode = Opcode::kRndvRts;
  EXPECT_NE(key_of(1, eager.hdr), key_of(1, rts.hdr));   // opcode
  EXPECT_NE(key_of(1, eager.hdr), key_of(2, eager.hdr)); // destination
  Packet frag = make_packet(7, /*imm=*/9);
  EXPECT_NE(key_of(1, eager.hdr), key_of(1, frag.hdr));  // cookie
}

TEST(ReliabilityTracker, AckRetiresEntry) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(/*rto_ns=*/100, /*rto_max_ns=*/1000, /*max_retries=*/3, due);
  const Packet pkt = make_packet(1);
  EXPECT_EQ(t.in_flight(), 0u);
  t.track(1, pkt, /*now_ns=*/0);
  EXPECT_EQ(t.in_flight(), 1u);
  EXPECT_EQ(due.load(), 100u);  // track() lowered the shared due time

  EXPECT_TRUE(t.ack(key_of(1, pkt.hdr)));
  EXPECT_EQ(t.in_flight(), 0u);
  // The ack of a duplicate finds nothing and says so.
  EXPECT_FALSE(t.ack(key_of(1, pkt.hdr)));
}

TEST(ReliabilityTracker, UntrackRemovesFailedInjection) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, 3, due);
  const Packet pkt = make_packet(2);
  t.track(1, pkt, 0);
  t.untrack(key_of(1, pkt.hdr));
  EXPECT_EQ(t.in_flight(), 0u);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(/*now_ns=*/1000, resends, failures);
  EXPECT_TRUE(resends.empty());
  EXPECT_TRUE(failures.empty());
}

TEST(ReliabilityTracker, SweepClonesExpiredEntries) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, 3, due);
  const std::string payload(fabric::kInlineBytes + 10, 'r');  // heap payload
  const Packet pkt = make_packet(3, 0, payload);
  t.track(2, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(/*now_ns=*/50, resends, failures);  // not yet expired
  EXPECT_TRUE(resends.empty());

  t.sweep(/*now_ns=*/150, resends, failures);
  ASSERT_EQ(resends.size(), 1u);
  EXPECT_EQ(resends[0].dst, 2);
  EXPECT_EQ(resends[0].pkt.hdr.seq, 3u);
  EXPECT_EQ(std::memcmp(resends[0].pkt.payload(), payload.data(), payload.size()), 0);
  EXPECT_TRUE(failures.empty());
}

TEST(ReliabilityTracker, SweepOnlyClaimsNoDoubleClone) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, 3, due);
  t.track(1, make_packet(4), 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(150, resends, failures);
  ASSERT_EQ(resends.size(), 1u);

  // The claim pushed the deadline one rto out (150 + 100): an immediate
  // second sweep must not clone the same entry again.
  resends.clear();
  EXPECT_EQ(t.sweep(151, resends, failures), 250u);
  EXPECT_TRUE(resends.empty());
}

TEST(ReliabilityTracker, ConfirmChargesRetryAndBacksOff) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, 3, due);
  const Packet pkt = make_packet(5);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(150, resends, failures);
  ASSERT_EQ(resends.size(), 1u);
  t.confirm_retransmit(key, 150);

  // Backoff doubled the rto: the next deadline is 150 + 200.
  resends.clear();
  t.sweep(300, resends, failures);
  EXPECT_TRUE(resends.empty());
  t.sweep(350, resends, failures);
  EXPECT_EQ(resends.size(), 1u);
}

TEST(ReliabilityTracker, ConfirmAfterAckIsNoOp) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, 3, due);
  const Packet pkt = make_packet(6);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);
  EXPECT_TRUE(t.ack(key));
  t.confirm_retransmit(key, 200);  // raced: must not resurrect the entry
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, RtoBackoffIsBoundedByMax) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(/*rto_ns=*/100, /*rto_max_ns=*/300, /*max_retries=*/10, due);
  const Packet pkt = make_packet(7);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  for (int i = 0; i < 4; ++i) {
    now += 1000;  // comfortably past any deadline
    resends.clear();
    t.sweep(now, resends, failures);
    ASSERT_EQ(resends.size(), 1u) << "retry " << i;
    t.confirm_retransmit(key, now);
  }
  // rto is now clamped to 300: a sweep 299 past the confirm sees nothing,
  // one at 300 claims.
  resends.clear();
  t.sweep(now + 299, resends, failures);
  EXPECT_TRUE(resends.empty());
  t.sweep(now + 300, resends, failures);
  EXPECT_EQ(resends.size(), 1u);
}

TEST(ReliabilityTracker, ExhaustionAfterMaxConfirmedRetries) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, /*max_retries=*/2, due);
  const Packet pkt = make_packet(8);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  for (int i = 0; i < 2; ++i) {
    now += 10000;
    resends.clear();
    t.sweep(now, resends, failures);
    ASSERT_EQ(resends.size(), 1u);
    ASSERT_TRUE(failures.empty());
    t.confirm_retransmit(key, now);
  }
  // Retry budget spent: the next expiry fails the entry typed and removes it.
  now += 10000;
  resends.clear();
  t.sweep(now, resends, failures);
  EXPECT_TRUE(resends.empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].key, key);
  EXPECT_EQ(failures[0].retries, 2);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, UnconfirmedSweepsNeverExhaust) {
  // Ring-full retransmit attempts (sweep claims that were never confirmed)
  // must not burn the retry budget — the backpressure-storm regression.
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, /*max_retries=*/2, due);
  t.track(1, make_packet(9), 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  for (int i = 0; i < 20; ++i) {
    now += 10000;
    resends.clear();
    t.sweep(now, resends, failures);
    EXPECT_EQ(resends.size(), 1u) << "claim " << i;
    EXPECT_TRUE(failures.empty()) << "claim " << i;
  }
  EXPECT_EQ(t.in_flight(), 1u);  // still tracked, still recoverable
}

TEST(ReliabilityTracker, MaxRetriesZeroFailsFastWithoutResending) {
  // Fail-fast mode: the first unacked rto expiry fails the entry typed and
  // never retransmits. No resend clone may be emitted.
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, /*max_retries=*/0, due);
  const Packet pkt = make_packet(11);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);
  EXPECT_EQ(t.in_flight(), 1u);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(50, resends, failures);  // deadline (100) not reached yet
  EXPECT_TRUE(resends.empty());
  EXPECT_TRUE(failures.empty());

  t.sweep(200, resends, failures);
  EXPECT_TRUE(resends.empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].key, key);
  EXPECT_EQ(failures[0].retries, 0);
  EXPECT_EQ(failures[0].code, common::ErrorCode::kRetryExhausted);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, FailPeerPurgesTypedAndLatchesDeath) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, /*max_retries=*/2, due);
  t.track(1, make_packet(1), 0);
  t.track(1, make_packet(2), 0);
  t.track(2, make_packet(3), 0);
  EXPECT_EQ(t.in_flight(), 3u);

  std::vector<ReliabilityTracker::Failure> failures;
  t.fail_peer(1, failures);
  ASSERT_EQ(failures.size(), 2u);
  for (const auto& f : failures) {
    EXPECT_EQ(f.key.peer, 1);
    EXPECT_EQ(f.code, common::ErrorCode::kPeerFailed);
  }
  EXPECT_TRUE(t.peer_failed(1));
  EXPECT_FALSE(t.peer_failed(2));
  EXPECT_EQ(t.in_flight(), 1u);  // the peer-2 entry is untouched

  // A track racing the confirmation (registered after fail_peer) is caught
  // by the next sweep regardless of its deadline — no retry budget burned
  // into a dead link.
  t.track(1, make_packet(4), 0);
  std::vector<ReliabilityTracker::Resend> resends;
  failures.clear();
  t.sweep(1, resends, failures);  // nothing has expired at now=1
  EXPECT_TRUE(resends.empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].code, common::ErrorCode::kPeerFailed);
  EXPECT_EQ(failures[0].key.peer, 1);
  EXPECT_EQ(t.in_flight(), 1u);
}

TEST(ReliabilityTracker, AckRangeRetiresExactlyTheNamedKeys) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(100, 1000, 3, due);
  for (std::uint32_t seq = 0; seq < 10; ++seq) t.track(1, make_packet(seq), 0);
  Packet other_comm = make_packet(3);
  other_comm.hdr.comm_id = 2;
  t.track(1, other_comm, 0);
  Packet other_opcode = make_packet(4);
  other_opcode.hdr.opcode = Opcode::kRndvRts;
  t.track(1, other_opcode, 0);
  t.track(2, make_packet(5), 0);  // other peer
  ASSERT_EQ(t.in_flight(), 13u);

  // Seqs 2..6 of stream (peer 1, comm 1, kEager, imm 0), nothing else.
  EXPECT_EQ(t.ack_range(key_of(1, make_packet(2).hdr), 5), 5u);
  EXPECT_EQ(t.in_flight(), 8u);
  for (std::uint32_t seq = 2; seq <= 6; ++seq) {
    EXPECT_FALSE(t.ack(key_of(1, make_packet(seq).hdr))) << seq;
  }
  for (const std::uint32_t seq : {0u, 1u, 7u, 8u, 9u}) {
    EXPECT_TRUE(t.ack(key_of(1, make_packet(seq).hdr))) << seq;
  }
  EXPECT_TRUE(t.ack(key_of(1, other_comm.hdr)));
  EXPECT_TRUE(t.ack(key_of(1, other_opcode.hdr)));
  EXPECT_TRUE(t.ack(key_of(2, make_packet(5).hdr)));
  EXPECT_EQ(t.in_flight(), 0u);
  // A run over keys already retired retires nothing.
  EXPECT_EQ(t.ack_range(key_of(1, make_packet(0).hdr), 10), 0u);
}

// --- the receiver's ack queue (p2p::queue_ack) ---

using Kind = ControlMsg::Kind;

ControlMsg notice(std::uint32_t comm, std::uint32_t seq, Kind kind = Kind::kSendPacketAck) {
  return ControlMsg{kind, /*peer=*/0, comm, /*local_cookie=*/0, /*remote_cookie=*/0, seq,
                    static_cast<std::uint16_t>(Opcode::kEager)};
}

/// (kind, comm, seq, count) of every queued entry, in order.
struct AckRun {
  Kind kind;
  std::uint32_t comm;
  std::uint32_t seq;
  std::uint32_t count;
  bool operator==(const AckRun&) const = default;
};

std::vector<AckRun> runs(const std::deque<ControlMsg>& q) {
  std::vector<AckRun> out;
  for (const ControlMsg& m : q) out.push_back(AckRun{m.kind, m.comm, m.seq, m.ack_count});
  return out;
}

TEST(AckQueue, InOrderAcksFormOneRun) {
  std::deque<ControlMsg> q;
  for (std::uint32_t seq = 0; seq < 10; ++seq) queue_ack(q, notice(1, seq));
  EXPECT_EQ(runs(q), (std::vector<AckRun>{{Kind::kSendPacketAck, 1, 0, 10}}));
}

TEST(AckQueue, InterleavedStreamsKeepOneRunEach) {
  std::deque<ControlMsg> q;
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    queue_ack(q, notice(1, seq));
    queue_ack(q, notice(2, seq));
  }
  EXPECT_EQ(runs(q), (std::vector<AckRun>{{Kind::kSendPacketAck, 1, 0, 8},
                                       {Kind::kSendPacketAck, 2, 0, 8}}));
  // Acked opcode and imm are part of the stream too.
  ControlMsg rts = notice(1, 8);
  rts.ack_opcode = static_cast<std::uint16_t>(Opcode::kRndvRts);
  queue_ack(q, rts);
  ControlMsg cookie = notice(1, 8);
  cookie.remote_cookie = 7;
  queue_ack(q, cookie);
  EXPECT_EQ(q.size(), 4u);
}

TEST(AckQueue, SeqGapStartsNewRun) {
  std::deque<ControlMsg> q;
  for (const std::uint32_t seq : {0u, 1u, 2u, 5u, 6u, 4u}) queue_ack(q, notice(1, seq));
  EXPECT_EQ(runs(q), (std::vector<AckRun>{{Kind::kSendPacketAck, 1, 0, 3},
                                       {Kind::kSendPacketAck, 1, 5, 2},
                                       {Kind::kSendPacketAck, 1, 4, 1}}));
}

TEST(AckQueue, NackOrDeferSplitsRunAndIsNeverMerged) {
  std::deque<ControlMsg> q;
  queue_ack(q, notice(1, 0));
  queue_ack(q, notice(1, 1, Kind::kSendPacketDefer));
  queue_ack(q, notice(1, 1));  // the deferred packet, re-presented
  queue_ack(q, notice(1, 2, Kind::kSendPacketNack));
  queue_ack(q, notice(1, 3, Kind::kSendPacketNack));
  queue_ack(q, notice(1, 4, Kind::kSendPacketDefer));
  queue_ack(q, notice(1, 5, Kind::kSendPacketDefer));
  queue_ack(q, notice(1, 6));
  queue_ack(q, notice(1, 7));
  EXPECT_EQ(runs(q), (std::vector<AckRun>{{Kind::kSendPacketAck, 1, 0, 1},
                                       {Kind::kSendPacketDefer, 1, 1, 1},
                                       {Kind::kSendPacketAck, 1, 1, 1},
                                       {Kind::kSendPacketNack, 1, 2, 1},
                                       {Kind::kSendPacketNack, 1, 3, 1},
                                       {Kind::kSendPacketDefer, 1, 4, 1},
                                       {Kind::kSendPacketDefer, 1, 5, 1},
                                       {Kind::kSendPacketAck, 1, 6, 2}}));
}

TEST(AckQueue, RunBoundSplitsRun) {
  std::deque<ControlMsg> q;
  for (std::uint32_t seq = 0; seq < kMaxAckRun + 3; ++seq) queue_ack(q, notice(1, seq));
  EXPECT_EQ(runs(q), (std::vector<AckRun>{{Kind::kSendPacketAck, 1, 0, kMaxAckRun},
                                       {Kind::kSendPacketAck, 1, kMaxAckRun, 3}}));
}

TEST(AckQueue, LookbackIsBounded) {
  std::deque<ControlMsg> q;
  queue_ack(q, notice(1, 0));
  for (std::uint32_t c = 0; c < kAckLookback; ++c) queue_ack(q, notice(100 + c, 0));
  queue_ack(q, notice(1, 1));  // its run is past the lookback: a new entry
  ASSERT_EQ(q.size(), kAckLookback + 2);
  EXPECT_EQ(q.front().ack_count, 1u);
  EXPECT_EQ(q.back().seq, 1u);
  EXPECT_EQ(q.back().ack_count, 1u);
}

}  // namespace
}  // namespace fairmpi::p2p
