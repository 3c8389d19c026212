// End-to-end chaos tests: exactly-once delivery over a seeded lossy fabric
// (eager and rendezvous, with drops, duplicates, reordering and corruption),
// the stall watchdog's escalation ladder, and typed send-budget errors.
//
// Every test clears the FAIRMPI_* chaos environment first: the fault model
// here is programmatic and seeded so the runs stay deterministic even when
// the suite itself is executed under the CI chaos profile.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "support/scoped_chaos_env.hpp"

namespace fairmpi {
namespace {

using common::Error;
using common::ErrorCode;
using spc::Counter;

using test_support::ScopedChaosEnvClear;

Config lossy_config() {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.faults.drop = 0.02;
  cfg.faults.dup = 0.01;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = 0x5eed;
  cfg.rto_ns = 200'000;  // 0.2 ms: recover fast, keep the test short
  return cfg;
}

/// Error-sink capture target for the watchdog / budget tests.
struct ErrorCapture {
  std::vector<Error> errors;
  static void sink(const Error& err, void* user) {
    static_cast<ErrorCapture*>(user)->errors.push_back(err);
  }
  bool saw(ErrorCode code) const {
    for (const Error& e : errors) {
      if (e.code == code) return true;
    }
    return false;
  }
};

TEST(Chaos, ExactlyOnceEagerFifo) {
  ScopedChaosEnvClear env;
  Universe uni(lossy_config());
  ASSERT_TRUE(uni.config().reliable);  // faults.any() switches it on
  constexpr int kMessages = 400;

  std::thread sender([&] {
    auto w0 = uni.rank(0).world();
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      w0.send(1, /*tag=*/7, &i, sizeof i);
    }
  });
  // FIFO: despite drops, duplicates and reordering on the wire, the
  // application-visible stream is in order and every message arrives once.
  auto w1 = uni.rank(1).world();
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    std::uint32_t got = ~0u;
    const Status st = w1.recv(0, 7, &got, sizeof got);
    ASSERT_EQ(st.size, sizeof got);
    ASSERT_EQ(got, i) << "stream broke order at message " << i;
  }
  sender.join();

  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kMessages));

  // The run must actually have been lossy, and the protocol visibly active.
  const auto& stats = uni.fabric().injector()->stats();
  EXPECT_GT(stats.dropped.load(), 0u);
  const spc::Snapshot total = uni.aggregate_counters();
  EXPECT_GT(total.get(Counter::kRetransmits), 0u);
  EXPECT_GT(total.get(Counter::kAcksSent), 0u);
  EXPECT_GT(total.get(Counter::kAcksReceived), 0u);
  EXPECT_GT(total.get(Counter::kDupDiscards), 0u);
  EXPECT_EQ(total.get(Counter::kReliabilityErrors), 0u);
}

TEST(Chaos, ExactlyOnceConcurrentSenders) {
  ScopedChaosEnvClear env;
  Config cfg = lossy_config();
  cfg.num_instances = 2;
  cfg.assignment = cri::Assignment::kRoundRobin;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  Universe uni(cfg);
  constexpr int kThreads = 3;
  constexpr std::uint32_t kPerThread = 150;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&uni, t] {
      auto w0 = uni.rank(0).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        w0.send(1, /*tag=*/t, &i, sizeof i);
      }
    });
    workers.emplace_back([&uni, t] {
      // Per-tag FIFO must survive the lossy fabric in threaded mode too.
      auto w1 = uni.rank(1).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        std::uint32_t got = ~0u;
        w1.recv(0, t, &got, sizeof got);
        ASSERT_EQ(got, i) << "tag " << t;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(uni.aggregate_counters().get(Counter::kReliabilityErrors), 0u);
}

TEST(Chaos, ExactlyOnceSubmitRingOversubscribed) {
  // Submission-ring stress under a lossy fabric: one instance, dedicated
  // assignment, more sender threads than instances, and a deliberately tiny
  // ring (8 entries) so producers hit every ring path — combining-funnel
  // flushes, full-ring blocking acquires, doorbell escalation — while the
  // reliability layer retransmits around drops. Exactly-once delivery and
  // per-tag FIFO must hold regardless of which path each packet took.
  ScopedChaosEnvClear env;
  Config cfg = lossy_config();
  cfg.num_instances = 1;
  cfg.assignment = cri::Assignment::kDedicated;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  cfg.submit_ring_entries = 8;
  Universe uni(cfg);
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 150;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&uni, t] {
      auto w0 = uni.rank(0).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        w0.send(1, /*tag=*/t, &i, sizeof i);
      }
    });
    workers.emplace_back([&uni, t] {
      auto w1 = uni.rank(1).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        std::uint32_t got = ~0u;
        w1.recv(0, t, &got, sizeof got);
        ASSERT_EQ(got, i) << "tag " << t;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(uni.aggregate_counters().get(Counter::kReliabilityErrors), 0u);
}

TEST(Chaos, RendezvousIntegrityUnderCorruption) {
  ScopedChaosEnvClear env;
  Config cfg = lossy_config();
  cfg.faults.corrupt = 0.02;
  cfg.rndv_frag_bytes = 4096;  // many fragments => many fault opportunities
  Universe uni(cfg);
  constexpr int kMessages = 3;
  const std::size_t kBytes = 200 * 1024;  // well past eager_limit

  std::vector<std::byte> out(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    out[i] = static_cast<std::byte>(i * 131 + 17);
  }

  std::thread sender([&] {
    auto w0 = uni.rank(0).world();
    for (int m = 0; m < kMessages; ++m) {
      w0.send(1, /*tag=*/m, out.data(), out.size());
    }
  });
  auto w1 = uni.rank(1).world();
  for (int m = 0; m < kMessages; ++m) {
    std::vector<std::byte> in(kBytes);
    const Status st = w1.recv(0, m, in.data(), in.size());
    ASSERT_EQ(st.size, kBytes);
    ASSERT_FALSE(st.truncated);
    // Bit-exact despite corrupted fragments on the wire: the checksum
    // rejects them and the retransmit path re-sends clean copies.
    ASSERT_EQ(std::memcmp(in.data(), out.data(), kBytes), 0) << "message " << m;
  }
  sender.join();

  const spc::Snapshot total = uni.aggregate_counters();
  EXPECT_GT(total.get(Counter::kCsumDrops), 0u);
  EXPECT_GT(total.get(Counter::kRetransmits), 0u);
  EXPECT_EQ(total.get(Counter::kReliabilityErrors), 0u);
  EXPECT_GT(uni.fabric().injector()->stats().corrupted.load(), 0u);
}

TEST(Chaos, WatchdogEscalatesStalledInstance) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.watchdog_interval_ns = 0;  // sweep on every poll
  cfg.watchdog_stall_sweeps = 2;
  Universe uni(cfg);

  ErrorCapture capture;
  uni.rank(1).set_error_sink(ErrorCapture::sink, &capture);

  // Park a packet in rank 1's RX ring and never progress rank 1: its
  // consumption frontier is frozen with a non-empty backlog — the stall
  // signature the watchdog exists to catch.
  const std::uint32_t payload = 42;
  uni.rank(0).world().send(1, /*tag=*/0, &payload, sizeof payload);

  progress::Watchdog* dog = uni.rank(1).watchdog();
  ASSERT_NE(dog, nullptr);
  for (int i = 0; i < 10; ++i) dog->poll(now_ns());

  EXPECT_GT(dog->stalls_flagged(), 0u);
  EXPECT_GT(uni.rank(1).counters().get(Counter::kWatchdogStalls), 0u);
  EXPECT_TRUE(capture.saw(ErrorCode::kStalledInstance));
}

TEST(Chaos, WatchdogFlagsStalledRendezvous) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.watchdog_interval_ns = 0;
  cfg.rndv_stall_ns = 1;  // everything pending is immediately "old"
  Universe uni(cfg);

  ErrorCapture capture;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &capture);

  // A rendezvous send whose RTS the peer never matches (rank 1 never posts
  // a receive or progresses): the transfer is orphaned at the sender.
  std::vector<std::byte> big(64 * 1024);
  Request req;
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/0, big.data(), big.size(), req);
  ASSERT_FALSE(req.done());

  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  progress::Watchdog* dog = uni.rank(0).watchdog();
  ASSERT_NE(dog, nullptr);
  dog->poll(now_ns());

  EXPECT_GT(uni.rank(0).counters().get(Counter::kWatchdogStalls), 0u);
  EXPECT_TRUE(capture.saw(ErrorCode::kStalledRendezvous));
}

TEST(Chaos, SendBudgetExhaustionIsTypedNotLivelock) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.fabric.rx_ring_entries = 8;
  cfg.send_retry_limit = 500;  // bounded spin instead of forever
  Universe uni(cfg);

  ErrorCapture capture;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &capture);

  // Fill the peer's only RX ring; it never drains (rank 1 never progresses).
  const std::uint32_t payload = 7;
  std::vector<std::unique_ptr<Request>> reqs;
  bool failed = false;
  for (int i = 0; i < 16 && !failed; ++i) {
    reqs.push_back(std::make_unique<Request>());
    uni.rank(0).isend(kWorldComm, 1, /*tag=*/0, &payload, sizeof payload,
                      *reqs.back());
    ASSERT_TRUE(reqs.back()->done());  // typed failure still completes
    failed = reqs.back()->failed();
  }

  ASSERT_TRUE(failed) << "ring never filled";
  EXPECT_EQ(reqs.back()->error(), ErrorCode::kSendBudgetExhausted);
  EXPECT_GT(uni.rank(0).counters().get(Counter::kReliabilityErrors), 0u);
  EXPECT_GT(uni.rank(0).counters().get(Counter::kSendBackpressure), 0u);
  EXPECT_TRUE(capture.saw(ErrorCode::kSendBudgetExhausted));
}

// --- ranged acks (DESIGN.md §5c): one kAck names a run of seqs ---

/// Reliable two-rank universe on a pristine fabric whose sender window is
/// `window` and whose rto never fires during a test.
Config ranged_ack_config(std::size_t window) {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.reliable = true;
  cfg.reliability_window = window;
  cfg.rto_ns = 60'000'000'000ULL;
  cfg.rto_max_ns = 60'000'000'000ULL;
  return cfg;
}

/// True when rank 0 can still send within 50 ms with rank 1 idle, i.e. its
/// reliability window has room.
bool window_open(Universe& uni) {
  const std::uint32_t v = 0;
  Request req;
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/9, &v, sizeof v, req, now_ns() + 50'000'000);
  uni.rank(0).wait(req);
  return !req.failed();
}

TEST(RangedAck, InOrderAcksLeaveAsOnePacket) {
  ScopedChaosEnvClear env;
  constexpr std::uint32_t kSent = 8;
  Universe uni(ranged_ack_config(kSent));
  for (std::uint32_t i = 0; i < kSent; ++i) uni.rank(0).world().send(1, 7, &i, sizeof i);
  EXPECT_FALSE(window_open(uni));  // eight unacked: the window is shut

  // One drain admits all eight and one flush answers them with one run.
  uni.rank(1).progress();
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kAcksSent), 1u);
  uni.rank(0).progress();
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kAcksReceived), 1u);
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kHeaderDrops), 0u);
  EXPECT_TRUE(window_open(uni));  // the one ack retired all eight
}

TEST(RangedAck, MalformedCountIsHeaderDropAndRetiresNothing) {
  ScopedChaosEnvClear env;
  Universe uni(ranged_ack_config(1));
  const std::uint32_t v = 1;
  uni.rank(0).world().send(1, 7, &v, sizeof v);  // seq 0, tracked
  ASSERT_FALSE(window_open(uni));

  // Hand-made acks from rank 1 naming seq 0, valid checksums and all.
  const auto inject_ack = [&](std::uint32_t count) {
    fabric::Packet ack;
    ack.hdr.opcode = fabric::Opcode::kAck;
    ack.hdr.src_rank = 1;
    ack.hdr.comm_id = kWorldComm;
    ack.hdr.tag = static_cast<std::int32_t>(fabric::Opcode::kEager);
    ack.hdr.seq = 0;
    ack.set_payload(&count, sizeof count);
    fabric::stamp_checksum(ack);
    ASSERT_TRUE(uni.fabric().nic(0).context(0).rx().try_push(std::move(ack)));
    uni.rank(0).progress();
  };
  inject_ack(0);
  inject_ack(p2p::kMaxAckRun + 1);
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kHeaderDrops), 2u);
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kAcksReceived), 0u);
  EXPECT_FALSE(window_open(uni));  // seq 0 is still tracked

  inject_ack(p2p::kMaxAckRun);  // a well-formed run over seq 0
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kAcksReceived), 1u);
  EXPECT_TRUE(window_open(uni));
}

// --- per-drain acks (DESIGN.md §5c): a drain's notices leave after it ---

TEST(RangedAck, OneDrainSendsOneAckPerStreamRun) {
  ScopedChaosEnvClear env;
  constexpr std::uint32_t kPerStream = 24;
  Universe uni(ranged_ack_config(2 * kPerStream));
  const CommId other = uni.create_communicator();
  // Two streams (one per communicator), interleaved on the wire: one drain
  // of 48 packets, under the drain batch of 64.
  std::vector<Request> reqs(2 * kPerStream);
  for (std::uint32_t i = 0; i < kPerStream; ++i) {
    uni.rank(0).isend(kWorldComm, 1, 7, &i, sizeof i, reqs[2 * i]);
    uni.rank(0).isend(other, 1, 7, &i, sizeof i, reqs[2 * i + 1]);
  }
  ASSERT_EQ(uni.rank(0).reliability()->in_flight(), 2 * kPerStream);

  uni.rank(1).progress();
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kAcksSent), 2u);  // one per stream
  uni.rank(0).progress();
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kAcksReceived), 2u);
  EXPECT_EQ(uni.rank(0).reliability()->in_flight(), 0u);
  for (Request& r : reqs) uni.rank(0).wait(r);
}

TEST(RangedAck, RefusedAckFallsBackToRankQueue) {
  ScopedChaosEnvClear env;
  constexpr std::uint32_t kSent = 4;
  Config cfg = ranged_ack_config(kSent);
  cfg.fabric.rx_ring_entries = kSent;
  Universe uni(cfg);
  std::vector<Request> reqs(kSent);
  for (std::uint32_t i = 0; i < kSent; ++i) {
    uni.rank(0).isend(kWorldComm, 1, 7, &i, sizeof i, reqs[i]);
  }
  // Fill every lane from rank 1 into rank 0 with heartbeats (consumed on
  // receipt, never answered), so rank 1's ack finds no room.
  for (int c = 0; c < uni.fabric().nic(0).num_contexts(); ++c) {
    for (int k = 0; k < uni.fabric().nic(1).num_contexts(); ++k) {
      for (;;) {
        fabric::Packet hb;
        hb.hdr.opcode = fabric::Opcode::kHeartbeat;
        hb.hdr.src_rank = 1;
        hb.hdr.src_ctx = static_cast<std::uint16_t>(k);
        fabric::stamp_checksum(hb);
        if (!uni.fabric().nic(0).context(c).rx().try_push(std::move(hb))) break;
      }
    }
  }

  uni.rank(1).progress();  // admits all four; the ack is refused and queued
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kAcksSent), 0u);
  EXPECT_EQ(uni.rank(0).reliability()->in_flight(), kSent);

  for (int i = 0; i < 4; ++i) uni.rank(0).progress();  // drain the heartbeats
  uni.rank(1).progress();  // the queued run leaves on flush_acks
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kAcksSent), 1u);
  uni.rank(0).progress();
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kAcksReceived), 1u);
  EXPECT_EQ(uni.rank(0).reliability()->in_flight(), 0u);
  for (Request& r : reqs) uni.rank(0).wait(r);
}

}  // namespace
}  // namespace fairmpi
