// End-to-end chaos tests: exactly-once delivery over a seeded lossy fabric
// (eager and rendezvous, with drops, duplicates, reordering and corruption)
// and typed send-budget errors.
//
// Every test clears the FAIRMPI_* chaos environment first: the fault model
// here is programmatic and seeded so the runs stay deterministic even when
// the suite itself is executed under the CI chaos profile.
#include <gtest/gtest.h>

#include <algorithm>
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

/// Error-sink capture target for the budget tests.
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

TEST(Chaos, LosslessReliableRunDropsNoChecksum) {
  // Reliable senders stamp heap payloads from the sum cached when the
  // payload was copied in; the receiver sums every byte. On a lossless
  // fabric the two must agree on every packet: eager payloads, one past
  // the largest pool class, and rendezvous fragments, pooled and huge. A
  // wrong cached sum would be retransmitted with the buffer forever, so
  // each op carries a deadline and the test fails instead of hanging.
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.reliable = true;
  cfg.eager_limit = 128 * 1024;
  cfg.op_deadline_ns = 20'000'000'000;
  const std::vector<std::size_t> eager = {65, 4096, 4097, 32768, 70000};
  const std::vector<std::size_t> frags = {4096, 70000};
  constexpr std::size_t kRndvBytes = 160 * 1024;
  constexpr int kRounds = 20;
  std::vector<std::byte> out(kRndvBytes);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::byte>(i * 131 + 17);
  std::vector<std::byte> in(kRndvBytes);

  {
    Universe uni(cfg);
    std::thread sender([&] {
      auto w0 = uni.rank(0).world();
      for (int r = 0; r < kRounds; ++r) {
        for (const std::size_t n : eager) {
          EXPECT_EQ(w0.send_checked(1, /*tag=*/0, out.data(), n), ErrorCode::kOk) << n << " B";
        }
      }
    });
    const auto receive_all = [&] {
      auto w1 = uni.rank(1).world();
      for (int r = 0; r < kRounds; ++r) {
        for (const std::size_t n : eager) {
          Status st;
          ASSERT_EQ(w1.recv_checked(0, 0, in.data(), in.size(), &st), ErrorCode::kOk)
              << n << " B, round " << r;
          ASSERT_EQ(st.size, n);
          ASSERT_EQ(std::memcmp(in.data(), out.data(), n), 0) << n << " B, round " << r;
        }
      }
    };
    receive_all();
    sender.join();
    EXPECT_EQ(uni.aggregate_counters().get(Counter::kCsumDrops), 0u) << "eager";
  }

  for (const std::size_t frag : frags) {
    Config rcfg = cfg;
    rcfg.rndv_frag_bytes = frag;
    Universe uni(rcfg);
    std::thread sender([&] {
      EXPECT_EQ(uni.rank(0).world().send_checked(1, /*tag=*/1, out.data(), out.size()),
                ErrorCode::kOk);
    });
    std::fill(in.begin(), in.end(), std::byte{0});
    Status st;
    const ErrorCode rc = uni.rank(1).world().recv_checked(0, 1, in.data(), in.size(), &st);
    sender.join();
    ASSERT_EQ(rc, ErrorCode::kOk) << "fragments of " << frag;
    ASSERT_EQ(st.size, kRndvBytes);
    EXPECT_EQ(std::memcmp(in.data(), out.data(), kRndvBytes), 0) << "fragments of " << frag;
    EXPECT_EQ(uni.aggregate_counters().get(Counter::kCsumDrops), 0u) << "fragments of " << frag;
  }
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

// --- the send window (DESIGN.md §5c): one per stream, in its tracker shard ---

TEST(Reliability, WindowIsPerStream) {
  // A window of one, rank 1 idle (nothing is ever acked): a send on comm A
  // fills A's window, and a send on comm B, whose stream lands on another
  // tracker shard, still passes. A tracker cap of one stays rank-wide, so
  // under it B waits out its deadline.
  ScopedChaosEnvClear env(ScopedChaosEnvClear::Knobs::kFaultsAndCaps);
  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("tracker_cap " + std::to_string(cap));
    Config cfg = ranged_ack_config(1);
    cfg.tracker_cap = cap;
    Universe uni(cfg);
    const CommId a = uni.create_communicator();
    const CommId b = uni.create_communicator();
    ASSERT_NE(p2p::ReliabilityTracker::shard_index(1, a),
              p2p::ReliabilityTracker::shard_index(1, b));
    const std::uint32_t v = 0;
    uni.rank(0).comm(a).send(1, 7, &v, sizeof v);  // fills A's window
    Request req;
    uni.rank(0).isend(b, 1, 7, &v, sizeof v, req, now_ns() + 50'000'000);
    uni.rank(0).wait(req);
    EXPECT_EQ(req.error(), cap == 0 ? ErrorCode::kOk : ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(uni.rank(0).reliability()->in_flight(), cap == 0 ? 2u : 1u);
  }
}

}  // namespace
}  // namespace fairmpi
