// Unit tests for the ack/retransmit tracker: key round-trips, the
// claim-then-confirm retry accounting (sweeps claim entries; only confirmed
// retransmits charge the budget and back off), retry exhaustion, ranged
// acks (the receiver's run merging and the tracker's ack_range), and the
// shard table and its per-shard counts checked against a reference map.
#include "fairmpi/p2p/reliability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
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

TEST(ReliabilityTracker, DeferralRestartsTheRetryCount) {
  // A deferral (the receiver held the packet at its cap) answers every
  // transmission still in flight, so the budget restarts: a held packet
  // whose notices lag behind its resends is never exhausted by them. The
  // base rto re-arms from the notice.
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(/*rto_ns=*/100, /*rto_max_ns=*/1000, /*max_retries=*/2, due);
  const Packet pkt = make_packet(10);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  const auto resend = [&] {
    now += 10000;
    t.sweep(now, resends, failures);
    t.confirm_retransmit(key, now);
  };
  resend();
  resend();  // two charged, both unanswered: the budget is spent
  now += 10;
  t.defer(key, now);  // one late notice answers both
  EXPECT_EQ(t.sweep(now, resends, failures), now + 100);
  resend();
  resend();
  EXPECT_EQ(resends.size(), 4u);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(t.in_flight(), 1u);
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

// --- the shard table (open addressing), against a reference map ---

bool key_less(const PacketKey& a, const PacketKey& b) {
  return std::tie(a.opcode, a.peer, a.comm, a.seq, a.imm) <
         std::tie(b.opcode, b.peer, b.comm, b.seq, b.imm);
}

/// Packet of stream (comm, kEager) with `seq`, tracked toward some peer.
Packet packet_for(const PacketKey& key) {
  Packet pkt = make_packet(key.seq, key.imm, "k");
  pkt.hdr.comm_id = key.comm;
  return pkt;
}

/// `n` keys of stream (peer, comm, kEager), seqs from `from` up, whose
/// hash ends in `low` over its low 12 bits: every table of up to 4096
/// slots homes them all on slot `low` mod its size, so they collide. With
/// low = 0xfff that is the last slot, and their probe cluster wraps past it.
std::vector<PacketKey> keys_homed_at(std::uint64_t low, std::size_t n, std::uint32_t from,
                                     std::uint16_t peer = 1, std::uint32_t comm = 1) {
  std::vector<PacketKey> keys;
  for (std::uint32_t seq = from; keys.size() < n; ++seq) {
    const PacketKey key{static_cast<std::uint16_t>(Opcode::kEager), peer, comm, seq, 0};
    if ((PacketKeyHash{}(key) & 0xfff) == low) keys.push_back(key);
  }
  return keys;
}

/// The tracker's contract, restated over std::unordered_map.
class ReferenceTracker {
 public:
  ReferenceTracker(std::uint64_t rto, std::uint64_t rto_max, int max_retries)
      : rto_(rto), rto_max_(rto_max), max_retries_(max_retries) {}

  void track(const PacketKey& key, std::uint64_t now) { map_[key] = Ref{0, now + rto_, rto_}; }
  std::size_t ack_range(PacketKey key, std::uint32_t count) {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < count; ++i, ++key.seq) n += map_.erase(key);
    return n;
  }
  bool defer(const PacketKey& key, std::uint64_t now) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    it->second.retries = 0;
    it->second.rto = rto_;
    it->second.deadline = now + rto_;
    return true;
  }
  void confirm(const PacketKey& key, std::uint64_t now) {
    const auto it = map_.find(key);
    if (it == map_.end()) return;
    Ref& r = it->second;
    ++r.retries;
    r.rto = std::min(r.rto * 2, rto_max_);
    r.deadline = now + r.rto;
  }
  std::uint64_t sweep(std::uint64_t now, std::vector<PacketKey>& resends,
                      std::vector<ReliabilityTracker::Failure>& failures) {
    std::uint64_t earliest = kNever;
    for (auto it = map_.begin(); it != map_.end();) {
      Ref& r = it->second;
      common::ErrorCode code = common::ErrorCode::kOk;
      if (dead_.count(it->first.peer) != 0) {
        code = common::ErrorCode::kPeerFailed;
      } else if (r.deadline > now) {
        earliest = std::min(earliest, r.deadline);
        ++it;
        continue;
      } else if (r.retries >= max_retries_) {
        code = common::ErrorCode::kRetryExhausted;
      }
      if (code != common::ErrorCode::kOk) {
        failures.push_back({it->first, r.retries, code});
        it = map_.erase(it);
        continue;
      }
      r.deadline = now + r.rto;
      earliest = std::min(earliest, r.deadline);
      resends.push_back(it->first);
      ++it;
    }
    return earliest;
  }
  void fail_peer(int peer, std::vector<ReliabilityTracker::Failure>& failures) {
    dead_.insert(peer);
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->first.peer != peer) {
        ++it;
        continue;
      }
      failures.push_back({it->first, it->second.retries, common::ErrorCode::kPeerFailed});
      it = map_.erase(it);
    }
  }
  std::size_t size() const { return map_.size(); }
  /// Entries per tracker shard.
  std::array<std::size_t, ReliabilityTracker::kShards> shard_sizes() const {
    std::array<std::size_t, ReliabilityTracker::kShards> n{};
    for (const auto& entry : map_) {
      ++n[ReliabilityTracker::shard_index(entry.first.peer, entry.first.comm)];
    }
    return n;
  }

 private:
  struct Ref {
    int retries;
    std::uint64_t deadline;
    std::uint64_t rto;
  };
  std::uint64_t rto_, rto_max_;
  int max_retries_;
  std::unordered_map<PacketKey, Ref, PacketKeyHash> map_;
  std::set<int> dead_;
};

void sort_failures(std::vector<ReliabilityTracker::Failure>& f) {
  std::sort(f.begin(), f.end(), [](const auto& a, const auto& b) { return key_less(a.key, b.key); });
}

void expect_same_failures(std::vector<ReliabilityTracker::Failure> got,
                          std::vector<ReliabilityTracker::Failure> want, int op) {
  sort_failures(got);
  sort_failures(want);
  ASSERT_EQ(got.size(), want.size()) << "op " << op;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "op " << op;
    EXPECT_EQ(got[i].retries, want[i].retries) << "op " << op;
    EXPECT_EQ(got[i].code, want[i].code) << "op " << op;
  }
}

TEST(ReliabilityTracker, TableMatchesReferenceMap) {
  constexpr std::uint64_t kRto = 100;
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(kRto, 8 * kRto, /*max_retries=*/3, due);
  ReferenceTracker ref(kRto, 8 * kRto, 3);

  // The key pool: in-order streams toward two peers over three
  // communicators (ack_range runs, several shards), plus keys forced to
  // collide on one home slot and keys whose cluster wraps past the last.
  std::vector<PacketKey> pool;
  for (std::uint16_t peer = 1; peer <= 2; ++peer) {
    for (std::uint32_t comm = 1; comm <= 3; ++comm) {
      for (std::uint32_t seq = 0; seq < 200; ++seq) {
        pool.push_back({static_cast<std::uint16_t>(Opcode::kEager), peer, comm, seq, 0});
      }
    }
  }
  for (const PacketKey& k : keys_homed_at(0xfff, 48, 1'000'000)) pool.push_back(k);
  for (const PacketKey& k : keys_homed_at(0x7ff, 48, 1'000'000)) pool.push_back(k);

  // One stream per shard to read its count through: consecutive comms
  // toward peer 1 reach every shard.
  std::array<std::uint32_t, ReliabilityTracker::kShards> probe_comm{};
  std::array<bool, ReliabilityTracker::kShards> probed{};
  for (std::uint32_t comm = 0, found = 0; found < ReliabilityTracker::kShards; ++comm) {
    const std::size_t shard = ReliabilityTracker::shard_index(1, comm);
    if (probed[shard]) continue;
    probed[shard] = true;
    probe_comm[shard] = comm;
    ++found;
  }

  std::mt19937_64 rng(0x7ab1e);
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  std::uint64_t now = 0;
  std::size_t peak = 0;
  for (int op = 0; op < 40'000; ++op) {
    now += rng() % (kRto / 4);
    const unsigned dice = static_cast<unsigned>(rng() % 100);
    if (op == 30'000) {
      std::vector<ReliabilityTracker::Failure> got, want;
      t.fail_peer(2, got);
      ref.fail_peer(2, want);
      expect_same_failures(got, want, op);
    } else if (dice < 40) {
      const PacketKey key = pick();
      t.track(key.peer, packet_for(key), now);
      ref.track(key, now);
    } else if (dice < 55) {
      const PacketKey key = pick();
      ASSERT_EQ(t.ack(key), ref.ack_range(key, 1) == 1) << "op " << op;
    } else if (dice < 65) {
      const PacketKey key = pick();
      const auto count = static_cast<std::uint32_t>(1 + rng() % kMaxAckRun);
      ASSERT_EQ(t.ack_range(key, count), ref.ack_range(key, count)) << "op " << op;
    } else if (dice < 75) {
      const PacketKey key = pick();
      ASSERT_EQ(t.defer(key, now), ref.defer(key, now)) << "op " << op;
    } else if (dice < 90) {
      const PacketKey key = pick();
      t.confirm_retransmit(key, now);
      ref.confirm(key, now);
    } else {
      std::vector<ReliabilityTracker::Resend> resends;
      std::vector<ReliabilityTracker::Failure> got, want;
      std::vector<PacketKey> got_keys, want_keys;
      const std::uint64_t earliest = t.sweep(now, resends, got);
      ASSERT_EQ(earliest, ref.sweep(now, want_keys, want)) << "op " << op;
      for (const auto& r : resends) got_keys.push_back(key_of(r.dst, r.pkt.hdr));
      std::sort(got_keys.begin(), got_keys.end(), key_less);
      std::sort(want_keys.begin(), want_keys.end(), key_less);
      ASSERT_EQ(got_keys, want_keys) << "op " << op;
      expect_same_failures(got, want, op);
    }
    ASSERT_EQ(t.in_flight(), ref.size()) << "op " << op;
    const auto shard_sizes = ref.shard_sizes();
    for (std::size_t shard = 0; shard < ReliabilityTracker::kShards; ++shard) {
      ASSERT_EQ(t.in_flight(1, probe_comm[shard]), shard_sizes[shard])
          << "op " << op << ", shard " << shard;
    }
    peak = std::max(peak, ref.size());
  }
  EXPECT_GT(peak, 256u);  // the tables grew several times over

  // Everything left retires exactly once.
  for (const PacketKey& key : pool) ASSERT_EQ(t.ack(key), ref.ack_range(key, 1) == 1);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, SweepEraseAcrossWrapVisitsEachEntryOnce) {
  // One probe cluster that starts on the last slot and wraps to the first,
  // alternating entries the sweep retransmits (A) and fails (B). Failing a
  // B shifts the cluster back over it, across the wrap; a sweep that
  // erased while it walked would then skip or revisit its neighbours.
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(/*rto_ns=*/100, /*rto_max_ns=*/100, /*max_retries=*/1, due);
  const std::vector<PacketKey> keys = keys_homed_at(0xfff, 24, 0);
  std::vector<PacketKey> retransmit, fail;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t.track(1, packet_for(keys[i]), 0);
    (i % 2 == 0 ? retransmit : fail).push_back(keys[i]);
  }
  for (const PacketKey& key : fail) t.confirm_retransmit(key, 0);  // retries 1 = max

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  EXPECT_EQ(t.sweep(/*now_ns=*/1000, resends, failures), 1100u);
  std::vector<PacketKey> resent;
  for (const auto& r : resends) resent.push_back(key_of(r.dst, r.pkt.hdr));
  std::vector<PacketKey> failed;
  for (const auto& f : failures) failed.push_back(f.key);
  std::sort(resent.begin(), resent.end(), key_less);
  std::sort(failed.begin(), failed.end(), key_less);
  std::sort(retransmit.begin(), retransmit.end(), key_less);
  std::sort(fail.begin(), fail.end(), key_less);
  EXPECT_EQ(resent, retransmit);  // each once: none skipped, none twice
  EXPECT_EQ(failed, fail);
  EXPECT_EQ(t.in_flight(), retransmit.size());

  // The same for fail_peer. Consecutive comm ids land on distinct shards,
  // so each peer-2 stream shares its shard with a peer-1 stream, and both
  // streams' keys join one wrapping cluster there.
  std::atomic<std::uint64_t> due2{kNever};
  ReliabilityTracker u(100, 100, 1, due2);
  std::vector<PacketKey> survivors, doomed;
  for (std::uint32_t comm = 1; comm <= 16; ++comm) {
    const auto one = keys_homed_at(0xfff, 3, 0, /*peer=*/1, comm);
    const auto two = keys_homed_at(0xfff, 3, 0, /*peer=*/2, comm);
    for (std::size_t i = 0; i < 3; ++i) {
      u.track(1, packet_for(one[i]), 0);
      u.track(2, packet_for(two[i]), 0);
    }
    survivors.insert(survivors.end(), one.begin(), one.end());
    doomed.insert(doomed.end(), two.begin(), two.end());
  }
  failures.clear();
  u.fail_peer(2, failures);
  failed.clear();
  for (const auto& f : failures) failed.push_back(f.key);
  std::sort(failed.begin(), failed.end(), key_less);
  std::sort(doomed.begin(), doomed.end(), key_less);
  EXPECT_EQ(failed, doomed);
  EXPECT_EQ(u.in_flight(), survivors.size());
  for (const PacketKey& key : survivors) EXPECT_TRUE(u.ack(key));
  EXPECT_EQ(u.in_flight(), 0u);
  for (const PacketKey& key : retransmit) EXPECT_TRUE(t.ack(key));
  EXPECT_EQ(t.in_flight(), 0u);
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
  queue_ack(q, notice(1, 4, Kind::kSendPacketDefer));
  queue_ack(q, notice(1, 5, Kind::kSendPacketDefer));
  queue_ack(q, notice(1, 6));
  queue_ack(q, notice(1, 7));
  EXPECT_EQ(runs(q), (std::vector<AckRun>{{Kind::kSendPacketAck, 1, 0, 1},
                                       {Kind::kSendPacketDefer, 1, 1, 1},
                                       {Kind::kSendPacketAck, 1, 1, 1},
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

TEST(AckQueue, DrainBatchMergesLikeTheRankQueue) {
  // One rule for both containers: the same notices give the same runs.
  std::deque<ControlMsg> q;
  NoticeBatch<64> batch;
  for (std::uint32_t seq = 0; seq < 20; ++seq) {
    for (const ControlMsg& m : {notice(1, seq), notice(2, seq / 2 * 3),
                                notice(3, seq, seq % 7 == 3 ? Kind::kSendPacketDefer
                                                            : Kind::kSendPacketAck)}) {
      queue_ack(q, m);
      queue_ack(batch, m);
    }
  }
  std::vector<AckRun> from_batch;
  for (const ControlMsg& m : batch) {
    from_batch.push_back(AckRun{m.kind, m.comm, m.seq, m.ack_count});
  }
  EXPECT_EQ(from_batch, runs(q));
  EXPECT_EQ(batch.size(), q.size());
}

}  // namespace
}  // namespace fairmpi::p2p
