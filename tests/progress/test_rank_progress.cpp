// Rank::progress() end to end: the services every call may run after the
// engine drain (DESIGN.md "Progress service step").
//   - the retransmit sweep is cooperative: a rank that stopped calling
//     progress() still gets its lost packets retransmitted by its peers;
//   - an idle call (nothing queued, no service due) takes no rank-shared
//     lock and no CRI lock, and answering a drain whose acks find room
//     takes no rank-shared lock.
// Suite name `Progress` is load-bearing: the CI tsan job selects it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/contention.hpp"
#include "support/scoped_chaos_env.hpp"

namespace fairmpi {
namespace {

using spc::Counter;

TEST(Progress, PeerProgressRetransmitsForSilentRank) {
  test_support::ScopedChaosEnvClear clear_env;
  constexpr int kMessages = 32;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Config cfg;
    cfg.reliable = true;
    cfg.faults.drop = 0.2;
    cfg.faults.seed = seed;
    Universe uni(cfg);

    // Rank 0 fires and forgets: after these isends it never progresses, so
    // only rank 1's progress() can retransmit what the fabric dropped.
    int payload[kMessages];
    Request sends[kMessages];
    for (int i = 0; i < kMessages; ++i) {
      payload[i] = i;
      uni.rank(0).isend(kWorldComm, 1, 9, &payload[i], sizeof(int), sends[i]);
    }

    int got[kMessages];
    Request recvs[kMessages];
    for (int i = 0; i < kMessages; ++i) {
      got[i] = -1;
      uni.rank(1).irecv(kWorldComm, 0, 9, &got[i], sizeof(int), recvs[i]);
    }
    const std::uint64_t until = now_ns() + 5'000'000'000ULL;
    int done = 0;
    while (done < kMessages && now_ns() < until) {
      uni.rank(1).progress();
      while (done < kMessages && recvs[done].done()) ++done;
    }
    ASSERT_EQ(done, kMessages) << "seed " << seed;
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_FALSE(recvs[i].failed()) << "seed " << seed << " msg " << i;
      EXPECT_EQ(got[i], i) << "seed " << seed;  // in order, each once
    }
    // Exactly once: retransmits of already-delivered packets are discarded,
    // never delivered a second time.
    for (int i = 0; i < 1000; ++i) uni.rank(1).progress();
    EXPECT_FALSE(uni.rank(1).iprobe(kWorldComm, 0, 9)) << "seed " << seed;
    EXPECT_EQ(uni.rank(1).counters().snapshot().get(Counter::kMessagesReceived),
              static_cast<std::uint64_t>(kMessages))
        << "seed " << seed;
  }
}

TEST(Progress, IdleCallTakesNoRankLock) {
  test_support::ScopedChaosEnvClear clear_env;
  Config cfg;
  cfg.reliable = true;  // the ack queue exists and is flushed every call
  cfg.obs_enabled = true;
  Universe uni(cfg);
  const auto control_acquires = [] {
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == "rank.rndv-control") return c.acquires;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = control_acquires();
  for (int i = 0; i < 10'000; ++i) uni.rank(0).progress();
  EXPECT_EQ(control_acquires() - before, 0u);
}

TEST(Progress, IdleCallTakesNoInstanceLock) {
  // Every visit reads its context's work word first (DESIGN.md §5f "Work
  // word"): an idle call, in either progress design, locks no CRI.
  test_support::ScopedChaosEnvClear clear_env;
  const auto instance_acquires = [] {
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == "cri.instance") return c.acquires;
    }
    return std::uint64_t{0};
  };
  for (const auto mode : {progress::ProgressMode::kConcurrent, progress::ProgressMode::kSerial}) {
    SCOPED_TRACE(progress::progress_mode_name(mode));
    Config cfg;
    cfg.num_instances = 4;
    cfg.progress_mode = mode;
    cfg.obs_enabled = true;
    Universe uni(cfg);
    uni.rank(0).progress();  // settle anything construction left behind
    const std::uint64_t before = instance_acquires();
    for (int i = 0; i < 10'000; ++i) uni.rank(0).progress();
    EXPECT_EQ(instance_acquires() - before, 0u);
  }
}

TEST(Progress, ReliableDrainTakesNoRankLock) {
  // A drain's acks leave right after it (DESIGN.md §5c "Per-drain acks"):
  // with room in the rings, answering 64 packets never touches the rank's
  // ack queue or its lock.
  test_support::ScopedChaosEnvClear clear_env;
  constexpr std::uint32_t kPackets = 64;
  Config cfg;
  cfg.reliable = true;
  cfg.reliability_window = kPackets;
  cfg.obs_enabled = true;
  Universe uni(cfg);
  Request reqs[kPackets];
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    uni.rank(0).isend(kWorldComm, 1, 9, &i, sizeof i, reqs[i]);
  }
  const auto control_acquires = [] {
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == "rank.rndv-control") return c.acquires;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = control_acquires();
  uni.rank(1).progress();  // one drain: all 64 packets
  EXPECT_EQ(control_acquires() - before, 0u);
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kAcksSent), 1u);  // one run
  uni.rank(0).progress();
  EXPECT_EQ(uni.rank(0).reliability()->in_flight(), 0u);
  for (Request& r : reqs) uni.rank(0).wait(r);
}

TEST(Progress, DrainMatchesEachCommRunUnderOneLock) {
  // A drain matches each run of consecutive envelopes for one communicator
  // under one hold of its match lock (DESIGN.md §5 rule 3): 64 packets on
  // one comm take the lock once, and a batch that alternates between two
  // comms in blocks takes it once per block. Reliable or not, one path.
  test_support::ScopedChaosEnvClear clear_env;
  constexpr std::uint32_t kPackets = 64;
  constexpr std::uint32_t kBlock = 16;
  const auto match_acquires = [] {
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == "match.engine") return c.acquires;
    }
    return std::uint64_t{0};
  };
  // One fresh universe per drain, so no retransmit of an earlier round can
  // share the measured batch.
  const auto drain_once = [&](bool reliable, bool alternate) {
    Config cfg;
    cfg.reliable = reliable;
    cfg.reliability_window = kPackets;
    cfg.obs_enabled = true;
    Universe uni(cfg);
    const CommId other = uni.create_communicator();
    const auto comm_of = [&](std::uint32_t i) {
      return alternate && (i / kBlock) % 2 == 1 ? other : kWorldComm;
    };
    Request reqs[kPackets];
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      uni.rank(0).isend(comm_of(i), 1, 9, &i, sizeof i, reqs[i]);
    }
    const std::uint64_t before = match_acquires();
    uni.rank(1).progress();  // one drain: all 64 packets
    const std::uint64_t taken = match_acquires() - before;
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      std::uint32_t got = ~0u;
      Request recv;
      uni.rank(1).irecv(comm_of(i), 0, 9, &got, sizeof got, recv);
      uni.rank(1).wait(recv);
      EXPECT_EQ(got, i);
    }
    for (Request& r : reqs) uni.rank(0).wait(r);
    return taken;
  };
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "unreliable");
    EXPECT_EQ(drain_once(reliable, /*alternate=*/false), 1u);
    EXPECT_EQ(drain_once(reliable, /*alternate=*/true), kPackets / kBlock);
  }
}

TEST(Progress, AckRetirementEndsThePass) {
  // Alg. 2 counts an ack that retires tracked packets as progress, as it
  // counts a completion: a pass whose own instance held only acks returns
  // without sweeping the other instance, and the call reports work, so
  // wait loops reset their backoff.
  test_support::ScopedChaosEnvClear clear_env(
      test_support::ScopedChaosEnvClear::Knobs::kFaultsAndCaps);
  Config cfg;
  cfg.reliable = true;
  cfg.num_instances = 2;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  cfg.rto_ns = 60'000'000'000ULL;  // no retransmit during the test
  cfg.rto_max_ns = 60'000'000'000ULL;
  Universe uni(cfg);
  Rank& rank = uni.rank(0);
  const int own = rank.pool().id_for_thread();
  fabric::NetworkContext& other = uni.fabric().nic(0).context(1 - own);

  const std::uint32_t v = 5;
  rank.world().send(1, 7, &v, sizeof v);  // seq 0 toward idle rank 1, tracked
  ASSERT_EQ(rank.reliability()->in_flight(), 1u);
  std::uint32_t got = 0;
  Request recv;
  rank.irecv(kWorldComm, 1, 8, &got, sizeof got, recv);

  // Rank 1's ack of seq 0 on our own instance; a message from rank 1 that
  // matches the posted receive on the other.
  fabric::Packet ack;
  ack.hdr.opcode = fabric::Opcode::kAck;
  ack.hdr.src_rank = 1;
  ack.hdr.comm_id = kWorldComm;
  ack.hdr.tag = static_cast<std::int32_t>(fabric::Opcode::kEager);
  const std::uint32_t count = 1;
  ack.set_payload(&count, sizeof count);
  fabric::stamp_checksum(ack);
  ASSERT_TRUE(uni.fabric().nic(0).context(own).rx().try_push(std::move(ack)));
  fabric::Packet msg;
  msg.hdr.opcode = fabric::Opcode::kEager;
  msg.hdr.src_rank = 1;
  msg.hdr.comm_id = kWorldComm;
  msg.hdr.tag = 8;
  msg.set_payload(&v, sizeof v);
  fabric::stamp_checksum(msg);
  ASSERT_TRUE(other.rx().try_push(std::move(msg)));
  const std::size_t backlog = other.rx().size_approx();
  const std::uint64_t delivered = other.delivered();
  ASSERT_EQ(backlog, 1u);

  EXPECT_NE(rank.progress(), 0u);
  EXPECT_EQ(rank.reliability()->in_flight(), 0u);  // the ack retired the send
  EXPECT_EQ(other.rx().size_approx(), backlog);    // and the pass ended there
  EXPECT_EQ(other.delivered(), delivered);
  EXPECT_FALSE(recv.done());
  EXPECT_EQ(rank.counters().get(Counter::kProgressCompletions), 0u);

  // Its own instance dry, the next pass sweeps the other.
  rank.wait(recv);
  EXPECT_FALSE(recv.failed());
  EXPECT_EQ(got, v);
}

}  // namespace
}  // namespace fairmpi
