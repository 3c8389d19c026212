// Overload control & graceful degradation tests (DESIGN.md §5h): bounded
// admission (the receiver holds and defers, the sender waits), sender-side
// pool/tracker caps, request cancellation, per-op deadlines, quiesce
// timeout diagnostics, and the observability surface.
//
// Every blocking drive is wall-clock bounded, so a regression that
// reintroduces a hang fails the test instead of wedging the suite. Suite
// names (Overload/Cancel/Deadline) are load-bearing: the CI tsan job
// selects these tests by that regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/fabric/wire.hpp"
#include "fairmpi/match/match_engine.hpp"
#include "support/scoped_chaos_env.hpp"

namespace fairmpi {
namespace {

using common::Error;
using common::ErrorCode;
using spc::Counter;
constexpr auto kCapsOnly = test_support::ScopedChaosEnvClear::Knobs::kCaps;
constexpr auto kFaultsAndCaps = test_support::ScopedChaosEnvClear::Knobs::kFaultsAndCaps;

/// Drive the given ranks' progress loops until `pred` holds; false on a
/// 5 s wall-clock timeout (the no-hang guard every test here leans on).
template <typename Pred>
bool drive(Universe& uni, const std::vector<int>& ranks, Pred pred) {
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (!pred()) {
    for (const int r : ranks) uni.rank(r).progress();
    if (now_ns() > deadline) return false;
  }
  return true;
}

/// Rank `r`'s "overload" object from the observability export, read now.
std::string overload_export(Universe& uni, int r) {
  std::ostringstream os;
  uni.dump_observability(os);
  const std::string json = os.str();
  const std::size_t rank_at = json.find("{\"rank\": " + std::to_string(r) + ",");
  const std::size_t at = json.find("\"overload\": ", rank_at);
  if (rank_at == std::string::npos || at == std::string::npos) return {};
  return json.substr(at, json.find('}', at) + 1 - at);
}

struct ErrorCapture {
  std::vector<Error> errors;
  Spinlock lock;
  static void sink(const Error& err, void* user) {
    auto* self = static_cast<ErrorCapture*>(user);
    LockGuard guard(self->lock);
    self->errors.push_back(err);
  }
  std::size_t count(ErrorCode code) {
    LockGuard guard(lock);
    std::size_t n = 0;
    for (const Error& e : errors) {
      if (e.code == code) ++n;
    }
    return n;
  }
  bool saw(ErrorCode code) { return count(code) != 0; }
};

// --- bounded admission: the queue at cap holds, nothing is lost ---

TEST(Overload, QueueMultiProducerPerPeerCap) {
  // 3 producers vs 1 slow consumer (the seeded 4:1 incast): the cap is
  // per-peer, so while the consumer idles each producer fills its own
  // quota and no more, and one aggressive peer cannot consume another's.
  // Every later packet is held and deferred, so its sender re-presents it
  // on the base rto until the consumer reads: every message arrives
  // exactly once, in order per producer, and no send fails.
  // Pins its own fabric and cap: the chaos env profile would override them.
  test_support::ScopedChaosEnvClear clear_env(kFaultsAndCaps);
  constexpr std::size_t kCap = 4;
  constexpr std::uint32_t kPerProducer = 32;
  Config cfg;
  cfg.num_ranks = 4;
  cfg.unexpected_cap = kCap;
  cfg.rto_ns = 200'000;  // held packets re-present promptly
  cfg.rto_max_ns = 2'000'000;
  cfg.max_retries = 1'000'000;
  Universe uni(cfg);
  std::vector<ErrorCapture> errors(3);
  for (int r = 1; r < 4; ++r) {
    uni.rank(r).set_error_sink(ErrorCapture::sink, &errors[r - 1]);
  }

  std::vector<std::thread> producers;
  for (int r = 1; r < 4; ++r) {
    producers.emplace_back([&, r] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint32_t value = static_cast<std::uint32_t>(r) * 1000 + i;
        Request req;
        uni.rank(r).isend(kWorldComm, 0, /*tag=*/9, &value, sizeof value, req);
        uni.rank(r).wait(req);
      }
    });
  }
  auto& match = uni.rank(0).comm_state(kWorldComm).match();
  ASSERT_TRUE(drive(uni, {0, 1, 2, 3}, [&] { return match.peers_at_cap() == 3; }));
  EXPECT_EQ(match.unexpected_count(), 3 * kCap);

  // Read everything: each producer's messages once each, in send order.
  std::vector<std::uint32_t> next(4, 0);
  for (std::uint32_t i = 0; i < 3 * kPerProducer; ++i) {
    Request req;
    std::uint32_t got = 0;
    uni.rank(0).irecv(kWorldComm, kAnySource, 9, &got, sizeof got, req);
    ASSERT_TRUE(drive(uni, {0, 1, 2, 3}, [&] { return req.done(); })) << i;
    ASSERT_FALSE(req.failed());
    const std::size_t src = static_cast<std::size_t>(req.status().source);
    ASSERT_TRUE(src >= 1 && src <= 3) << src;
    EXPECT_EQ(got, src * 1000 + next[src]);
    ++next[src];
  }
  for (auto& t : producers) t.join();
  for (int r = 1; r < 4; ++r) EXPECT_EQ(next[static_cast<std::size_t>(r)], kPerProducer);
  // Nothing beyond the sent messages: every tracked send was acked and no
  // copy waits in the queues.
  ASSERT_TRUE(drive(uni, {0, 1, 2, 3}, [&] {
    for (int r = 1; r < 4; ++r) {
      if (uni.rank(r).reliability()->in_flight() != 0) return false;
    }
    return true;
  }));
  EXPECT_EQ(match.unexpected_count(), 0u);
  EXPECT_EQ(match.reorder_buffered(), 0u);
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kMessagesReceived), 3 * kPerProducer);
  for (auto& e : errors) EXPECT_TRUE(e.errors.empty());
}

// --- bounded admission: one park limit ---

/// One capped flood: rank 0 sends kSent messages to a slow consumer on
/// rank 1 that reads one at a time, sampling its queues on every progress
/// visit. The receiver holds a packet while the unexpected count plus its
/// distance ahead of the in-order frontier reaches the cap and answers it
/// with a deferral, so fewer than kCap packets ever park and the queue
/// never exceeds kCap, on any placement and on a lossy fabric; nothing is
/// lost and no send fails.
struct Flood {
  /// The consumer posts nothing until its queue is at cap and a packet has
  /// been held, so the bound is checked with the queue full. Without it
  /// the consumer streams from the start, so fresh packets keep arriving
  /// while a held head waits.
  bool fill_first = false;
  /// Nonzero: a seeded lossy fabric, where gaps in the sequence stream are
  /// normal and parking is what the park limit bounds.
  double drop = 0.0;
  /// Nonzero: after the fill, the consumer keeps progressing without
  /// posting this long, at the default rto, rto_max and max_retries. The
  /// stall outlasts that retry budget (about 128 ms), so a hold must not
  /// charge it.
  std::uint64_t stall_ns = 0;
};

void check_queue_flood(const Flood& flood) {
  constexpr std::size_t kCap = 16;
  constexpr int kSent = 256;
  // Every row pins its cap, and a lossy row its fabric too: the chaos env
  // profile would override them. A no-drop row keeps the env's faults.
  test_support::ScopedChaosEnvClear clear_env(flood.drop > 0.0 ? kFaultsAndCaps : kCapsOnly);
  Config cfg;
  cfg.unexpected_cap = kCap;  // implies reliable: deferral needs the retransmit clock
  cfg.faults.drop = flood.drop;
  cfg.faults.seed = 7;
  if (flood.stall_ns == 0) {
    cfg.rto_ns = 200'000;  // fast retries so deferrals re-present quickly
    cfg.rto_max_ns = 2'000'000;
    cfg.max_retries = 1'000'000;
  }
  Universe uni(cfg);
  ErrorCapture sender_errors;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &sender_errors);

  std::atomic<int> received{0};
  std::atomic<bool> consumer_stuck{false};
  std::atomic<bool> consumer_done{false};
  std::size_t max_unexpected = 0;
  std::size_t max_parked = 0;
  std::thread consumer([&] {
    auto& match = uni.rank(1).comm_state(kWorldComm).match();
    const auto progress_and_sample = [&] {
      uni.rank(1).progress();
      max_unexpected = std::max(max_unexpected, match.unexpected_count());
      max_parked = std::max(max_parked, match.reorder_buffered());
    };
    // Fill: progress without posting until the queue is at cap and a
    // packet has been held.
    const std::uint64_t fill_deadline = now_ns() + 10'000'000'000ULL;
    while (flood.fill_first &&
           (match.peers_at_cap() == 0 ||
            uni.rank(1).counters().get(Counter::kOverloadPausedPackets) == 0) &&
           now_ns() < fill_deadline) {
      progress_and_sample();
    }
    // Stall: a consumer busy elsewhere still progresses, so held packets
    // keep being answered.
    const std::uint64_t stall_end = now_ns() + flood.stall_ns;
    while (now_ns() < stall_end) progress_and_sample();
    // Drain: the slow consumer reads one message at a time until it has
    // every sent message.
    while (received.load(std::memory_order_acquire) < kSent) {
      Request req;
      char got = 0;
      uni.rank(1).irecv(kWorldComm, 0, /*tag=*/3, &got, 1, req);
      const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
      while (!req.done() && now_ns() < deadline) progress_and_sample();
      if (!req.done() || req.failed()) {
        consumer_stuck.store(true, std::memory_order_release);
        break;
      }
      received.fetch_add(1, std::memory_order_release);
    }
    consumer_done.store(true, std::memory_order_release);
  });
  std::thread producer([&] {
    char byte = 'q';
    for (int i = 0; i < kSent; ++i) {
      Request req;
      uni.rank(0).isend(kWorldComm, 1, /*tag=*/3, &byte, 1, req);
      uni.rank(0).wait(req);
    }
  });
  producer.join();
  // The producer thread is done, but its deferred packets still need the
  // sender-side retransmit sweep: keep driving rank 0 until the consumer
  // has everything.
  const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
  while (!consumer_done.load(std::memory_order_acquire) && now_ns() < deadline) {
    uni.rank(0).progress();
  }
  consumer.join();
  // Nothing failed: a hold never charges the retry budget, so no send
  // ends kRetryExhausted and leaves the hole the consumer would wait on.
  EXPECT_TRUE(sender_errors.errors.empty())
      << sender_errors.errors.size() << " sender errors, "
      << sender_errors.count(ErrorCode::kRetryExhausted) << " of them RetryExhausted";
  ASSERT_FALSE(consumer_stuck.load(std::memory_order_acquire));
  ASSERT_EQ(received.load(std::memory_order_acquire), kSent);

  ::testing::Test::RecordProperty("max_unexpected", static_cast<int>(max_unexpected));
  ::testing::Test::RecordProperty("max_parked", static_cast<int>(max_parked));
  ::testing::Test::RecordProperty(
      "retransmits", static_cast<int>(uni.rank(0).counters().get(Counter::kRetransmits)));
  if (flood.fill_first) {
    // A packet was held with the consumer not posting and the queue full.
    EXPECT_GE(uni.rank(1).counters().get(Counter::kOverloadPausedPackets), 1u);
    EXPECT_GE(max_unexpected, kCap);
  }
  // The invariants: fewer than kCap parked, the queue within kCap.
  EXPECT_LE(max_unexpected, kCap);
  EXPECT_LT(max_parked, kCap);
}

TEST(Overload, QueuePolicyBoundsQueueWithoutLoss) {
  check_queue_flood({.fill_first = true});
}

TEST(Overload, QueuePolicyBoundsQueueWhileStreaming) {
  check_queue_flood({.fill_first = false});
}

TEST(Overload, QueuePolicyBoundsQueueOnLossyFabric) {
  check_queue_flood({.fill_first = true, .drop = 0.2});
}

TEST(Overload, QueuePolicyBoundsQueueThroughConsumerStall) {
  // A consumer that stalls 1 s at the cap outlasts the default retry
  // budget; every held packet still arrives and no send fails.
  check_queue_flood({.fill_first = true, .stall_ns = 1'000'000'000ULL});
}

// A drain hands the match engine whole runs of envelopes under one lock
// hold. A run that crosses the unexpected cap must give every packet the
// verdict it gets when the packets arrive one at a time, with the same
// counters: admission is decided per packet, in run order.
TEST(Overload, RunCrossingTheCapMatchesOneAtATime) {
  struct Arrival {
    int src;
    std::uint32_t seq;
  };
  // Source 1 fills the cap of 4 (one packet parks on the way), then keeps
  // coming, held with its queue full: in order, ahead, and as repeats of
  // an admitted and of a held seq. Source 2 interleaves below the cap, and
  // one of its packets is held past the park limit.
  const std::vector<Arrival> script = {
      {1, 0}, {1, 1}, {2, 0}, {1, 3}, {1, 2}, {1, 4}, {2, 1}, {1, 5}, {1, 6},
      {1, 8}, {1, 7}, {2, 3}, {2, 6}, {1, 9}, {1, 2}, {1, 5}, {2, 2}, {1, 10}};
  const auto make = [](const Arrival& a) {
    fabric::Packet pkt;
    pkt.hdr.opcode = fabric::Opcode::kEager;
    pkt.hdr.src_rank = static_cast<std::uint16_t>(a.src);
    pkt.hdr.tag = 7;
    pkt.hdr.seq = a.seq;
    return pkt;
  };
  overload::Limits lim;
  lim.unexpected_cap = 4;
  struct Side {
    explicit Side(const overload::Limits& l) : lim(l), eng(3, false, spc, true) {
      eng.set_overload(&lim);
    }
    spc::CounterSet spc;
    const overload::Limits lim;
    match::MatchEngine eng;
    std::vector<match::Admission> verdicts;
  };
  Side single(lim);
  Side run(lim);
  for (const Arrival& a : script) {
    match::Admission v = match::Admission::kAdmitted;
    single.eng.incoming(make(a), &v);
    single.verdicts.push_back(v);
  }
  std::vector<fabric::Packet> pkts;
  for (const Arrival& a : script) pkts.push_back(make(a));
  run.verdicts.assign(pkts.size(), match::Admission::kAdmitted);
  run.eng.incoming(pkts.data(), pkts.size(), run.verdicts.data());

  EXPECT_EQ(run.verdicts, single.verdicts);
  // Both causes of a hold occur. Script index 5 ({1, 4}) is source 1's
  // head with its queue full; index 12 ({2, 6}) is 4 past source 2's
  // frontier with only 2 queued, so the park limit holds it.
  ASSERT_EQ(run.verdicts.size(), script.size());
  EXPECT_EQ(run.verdicts[5], match::Admission::kHeld);
  EXPECT_EQ(run.verdicts[12], match::Admission::kHeld);
  EXPECT_EQ(run.verdicts[11], match::Admission::kAdmitted);  // {2, 3} parks
  // Each hold is counted once, per packet, whatever its cause.
  EXPECT_EQ(run.spc.get(Counter::kOverloadPausedPackets),
            static_cast<std::uint64_t>(
                std::count(run.verdicts.begin(), run.verdicts.end(), match::Admission::kHeld)));
  for (int c = 0; c < spc::kNumCounters; ++c) {
    const auto counter = static_cast<Counter>(c);
    if (counter == Counter::kMatchTimeNs) continue;  // wall time, not behaviour
    EXPECT_EQ(run.spc.get(counter), single.spc.get(counter)) << "counter " << c;
  }
  EXPECT_EQ(run.eng.unexpected_count(), single.eng.unexpected_count());
  EXPECT_EQ(run.eng.reorder_buffered(), single.eng.reorder_buffered());
  EXPECT_EQ(run.eng.peers_at_cap(), single.eng.peers_at_cap());
}

TEST(Overload, UnexpectedCapImpliesReliable) {
  // Without acks a held packet is never re-presented, so any
  // unexpected-queue cap switches reliability on.
  Config cfg;
  cfg.unexpected_cap = 4;
  ASSERT_FALSE(cfg.reliable);
  Universe uni(cfg);
  ASSERT_TRUE(uni.config().reliable);
}

// --- sender-side admission: payload-pool and tracker caps ---

TEST(Overload, PoolHighWaterStaysWithinCap) {
  // Pins its own cap; the env's fault profile stays (see below).
  test_support::ScopedChaosEnvClear clear_env(kCapsOnly);
  fabric::reset_payload_pool_high_water();
  constexpr std::uint64_t kPoolCap = 8 * 1024;
  Config cfg;
  cfg.payload_pool_cap_bytes = kPoolCap;
  Universe uni(cfg);
  // Consumer preposts everything so the flood drains; the cap's sender
  // wait keeps the pool's high-water bounded the whole way.
  constexpr int kSent = 128;
  std::thread consumer([&] {
    std::vector<char> got(512);
    for (int i = 0; i < kSent; ++i) {
      (void)uni.rank(1).world().recv(0, 2, got.data(), got.size());
    }
  });
  std::vector<char> payload(512, 'm');
  for (int i = 0; i < kSent; ++i) {
    uni.rank(0).world().send(1, 2, payload.data(), payload.size());
  }
  consumer.join();
  // Two sites charge the pool, and both refuse once it has reached the cap:
  // a send's payload, and the private copy the corrupt fault makes of a
  // shared payload (under the chaos env). Tracked masters, retransmits and
  // fabric duplicates share the payload and charge nothing. So only an
  // admitted charge passes the cap, by at most its own size.
  EXPECT_LT(fabric::payload_pool_stats().high_water_bytes,
            kPoolCap + fabric::payload_charge(payload.size()));
}

// --- request cancellation ---

TEST(Cancel, PostedReceiveSettlesExactlyOnce) {
  Universe uni(Config{});
  Request req;
  char buf = 0;
  uni.rank(1).irecv(kWorldComm, 0, 7, &buf, 1, req);
  EXPECT_TRUE(req.cancel());
  EXPECT_TRUE(req.done());
  EXPECT_EQ(req.error(), ErrorCode::kCancelled);
  EXPECT_FALSE(req.cancel());  // second cancel loses: already settled
  EXPECT_EQ(uni.rank(1).counters().snapshot().get(Counter::kCancelledOps), 1u);
}

TEST(Cancel, CancelVsMatchRaceSettlesExactlyOnce) {
  // Cancel from one thread races an arriving message from another: the
  // request must settle exactly once, as either a clean delivery or a
  // clean kCancelled — never both, never neither.
  Universe uni(Config{});
  for (int iter = 0; iter < 200; ++iter) {
    Request rreq;
    char got = 0;
    const int tag = 100 + iter;  // fresh tag: stale losers park harmlessly
    uni.rank(1).irecv(kWorldComm, 0, tag, &got, 1, rreq);
    std::thread canceller([&] { (void)rreq.cancel(); });
    char byte = 'r';
    Request sreq;
    uni.rank(0).isend(kWorldComm, 1, tag, &byte, 1, sreq);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return rreq.done(); }));
    canceller.join();
    ASSERT_TRUE(rreq.error() == ErrorCode::kOk ||
                rreq.error() == ErrorCode::kCancelled)
        << "iter " << iter;
    if (rreq.error() == ErrorCode::kOk) EXPECT_EQ(got, 'r');
  }
}

TEST(Cancel, RendezvousSendCancelVsLateAck) {
  // Cancel a rendezvous send whose RTS the receiver has not matched yet,
  // then let the receiver match it: the late RndvAck must hit the
  // tombstone and be discarded — no fragments stream from the (logically
  // freed) buffer, nothing hangs, and the link still works afterwards.
  Config cfg;
  cfg.eager_limit = 64;  // push a 1 KiB payload onto the rendezvous path
  Universe uni(cfg);
  std::vector<char> payload(1024, 's');
  Request sreq;
  uni.rank(0).isend(kWorldComm, 1, 11, payload.data(), payload.size(), sreq);
  EXPECT_TRUE(sreq.cancel());
  EXPECT_EQ(sreq.error(), ErrorCode::kCancelled);
  EXPECT_EQ(uni.rank(0).counters().snapshot().get(Counter::kCancelledOps), 1u);
  // The receiver now matches the RTS and acks into the tombstone.
  std::vector<char> got(1024);
  Request rreq;
  uni.rank(1).irecv(kWorldComm, 0, 11, got.data(), got.size(), rreq);
  const std::uint64_t until = now_ns() + 50'000'000ULL;
  while (now_ns() < until) {
    uni.rank(0).progress();
    uni.rank(1).progress();
  }
  EXPECT_FALSE(rreq.done());  // data never came — by design
  EXPECT_TRUE(rreq.cancel());
  // The engine is healthy: a fresh eager round-trip completes.
  char ping = 'z', pong = 0;
  Request s2, r2;
  uni.rank(1).irecv(kWorldComm, 0, 12, &pong, 1, r2);
  uni.rank(0).isend(kWorldComm, 1, 12, &ping, 1, s2);
  ASSERT_TRUE(drive(uni, {0, 1}, [&] { return r2.done(); }));
  EXPECT_EQ(pong, 'z');
}

// --- per-operation deadlines ---

TEST(Deadline, PostedReceiveExpiresTyped) {
  Universe uni(Config{});
  Request req;
  char buf = 0;
  uni.rank(1).irecv(kWorldComm, 0, 7, &buf, 1, req, now_ns() + 2'000'000);
  ASSERT_TRUE(drive(uni, {1}, [&] { return req.done(); }));
  EXPECT_EQ(req.error(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(uni.rank(1).counters().snapshot().get(Counter::kDeadlineExceededOps), 1u);
}

TEST(Deadline, BlockedSendExpiresTyped) {
  // A send stuck behind the reliability window (the peer never acks)
  // observes its deadline from inside the wait loop.
  Config cfg;
  cfg.reliable = true;
  cfg.reliability_window = 1;
  cfg.send_retry_limit = 0;  // unbounded retries: the deadline must fire
  cfg.rto_ns = 2'000'000'000ULL;
  cfg.rto_max_ns = 4'000'000'000ULL;
  Universe uni(cfg);
  char byte = 'd';
  Request a;
  uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, a);  // fills the window
  EXPECT_FALSE(a.failed());
  Request b;
  uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, b, now_ns() + 2'000'000);
  uni.rank(0).wait(b);
  EXPECT_EQ(b.error(), ErrorCode::kDeadlineExceeded);
  EXPECT_GE(uni.rank(0).counters().snapshot().get(Counter::kDeadlineExceededOps), 1u);
}

// Every sender-side gate (the reliability window, the tracker cap, the
// payload-pool cap) waits, and its typed ways out are the op's deadline and
// a cancel. A send that leaves the wait either way must not have consumed a
// sequence number: admission runs before the ticket, so the next message on
// the link still matches instead of parking behind a hole forever. Runs one
// row per exit for the given gate.
enum class Gate { kWindow, kTracker, kPool };

void check_gate_exits_leave_no_hole(Gate gate) {
  // Pins its own caps: the chaos env profile would override them.
  test_support::ScopedChaosEnvClear clear_env(kFaultsAndCaps);
  for (const bool cancel : {false, true}) {
    SCOPED_TRACE(std::string(gate == Gate::kWindow    ? "window"
                             : gate == Gate::kTracker ? "tracker_cap"
                                                      : "payload_pool_cap") +
                 (cancel ? " / cancel" : " / deadline"));
    Config cfg;
    cfg.reliable = true;
    cfg.send_retry_limit = 0;  // unbounded retries: only the exit under test ends the wait
    if (gate == Gate::kWindow) cfg.reliability_window = 1;
    if (gate == Gate::kTracker) cfg.tracker_cap = 1;
    if (gate == Gate::kPool) cfg.payload_pool_cap_bytes = 1;  // one payload fills it
    Universe uni(cfg);
    // Bigger than fabric::kInlineBytes, so each payload is charged to the
    // pool (the pool row's gate).
    std::vector<char> a_payload(256, 'a');
    Request a;
    uni.rank(0).isend(kWorldComm, 1, 1, a_payload.data(), a_payload.size(), a);  // fills the gate
    EXPECT_FALSE(a.failed());
    std::vector<char> b_payload(256, 'b');
    Request b;
    if (cancel) {
      // Cancel once b is blocked in the gate (it has started waiting).
      const std::uint64_t waits = uni.rank(0).counters().get(Counter::kSendAdmissionWaits);
      std::thread canceller([&] {
        while (uni.rank(0).counters().get(Counter::kSendAdmissionWaits) == waits) {
          std::this_thread::yield();
        }
        (void)b.cancel();
      });
      uni.rank(0).isend(kWorldComm, 1, 1, b_payload.data(), b_payload.size(), b);
      canceller.join();
      EXPECT_EQ(b.error(), ErrorCode::kCancelled);
    } else {
      uni.rank(0).isend(kWorldComm, 1, 1, b_payload.data(), b_payload.size(), b,
                        now_ns() + 2'000'000);
      uni.rank(0).wait(b);
      EXPECT_EQ(b.error(), ErrorCode::kDeadlineExceeded);
    }
    // Receive a: its ack reopens the window and the tracker, and its
    // buffers leave the pool.
    std::vector<char> got(256);
    Request ra;
    uni.rank(1).irecv(kWorldComm, 0, 1, got.data(), got.size(), ra);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return ra.done(); }));
    EXPECT_EQ(got[0], 'a');
    // c must match: b left no hole in the sequence stream.
    char c_byte = 'c';
    Request rc;
    uni.rank(1).irecv(kWorldComm, 0, 2, got.data(), got.size(), rc);
    Request c;
    uni.rank(0).isend(kWorldComm, 1, 2, &c_byte, 1, c);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return rc.done(); }));
    EXPECT_FALSE(rc.failed());
    EXPECT_EQ(got[0], 'c');
  }
}

TEST(Deadline, WindowExpiryLeavesNoSequenceHole) {
  check_gate_exits_leave_no_hole(Gate::kWindow);
}

TEST(Overload, TrackerCapWaitExitsLeaveNoHole) {
  check_gate_exits_leave_no_hole(Gate::kTracker);
}

TEST(Overload, PoolCapWaitExitsLeaveNoHole) {
  check_gate_exits_leave_no_hole(Gate::kPool);
}

TEST(Overload, DeferralIsProgressToTheSender) {
  // A deferral answers one of the sender's tracked sends, as an ack does,
  // so the progress call that handles it reports progress: a sender
  // waiting at its window keeps draining its held packets' notices
  // instead of backing off while they queue.
  test_support::ScopedChaosEnvClear clear_env(kFaultsAndCaps);
  Config cfg;
  cfg.unexpected_cap = 1;
  Universe uni(cfg);
  char byte = 'h';
  for (int i = 0; i < 2; ++i) {
    Request req;
    uni.rank(0).isend(kWorldComm, 1, 4, &byte, 1, req);
    uni.rank(0).wait(req);
  }
  // The first message fills rank 1's queue and is acked; the second is held.
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    return uni.rank(0).reliability()->in_flight() == 1 &&
           uni.rank(1).counters().get(Counter::kOverloadPausedPackets) != 0;
  }));
  // Nothing completes on rank 0 any more: only a deferral makes progress.
  EXPECT_TRUE(drive(uni, {1}, [&] { return uni.rank(0).progress() != 0; }));
}

TEST(Overload, WindowWaitChargesNoSendBudget) {
  // A send waiting at the reliability window waits for its receiver as at
  // any cap: the send budget bounds injection and the pool wait, so a
  // receiver slower than the budget fails no send.
  test_support::ScopedChaosEnvClear clear_env(kFaultsAndCaps);
  Config cfg;
  cfg.reliable = true;
  cfg.reliability_window = 1;
  cfg.send_retry_limit = 16;
  cfg.rto_ns = 1'000'000'000ULL;  // a's retransmits play no part
  cfg.rto_max_ns = 2'000'000'000ULL;
  Universe uni(cfg);
  char a_byte = 'a';
  Request a;
  uni.rank(0).isend(kWorldComm, 1, 1, &a_byte, 1, a);  // fills the window
  ASSERT_FALSE(a.failed());
  char b_byte = 'b';
  Request b;
  std::thread sender([&] { uni.rank(0).isend(kWorldComm, 1, 1, &b_byte, 1, b); });
  // b waits at the window well past its budget before rank 1 reads.
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (uni.rank(0).counters().get(Counter::kSendAdmissionWaits) < 4 * cfg.send_retry_limit &&
         now_ns() < deadline) {
    std::this_thread::yield();
  }
  std::array<char, 2> got{};
  Request ra;
  Request rb;
  uni.rank(1).irecv(kWorldComm, 0, 1, &got[0], 1, ra);
  uni.rank(1).irecv(kWorldComm, 0, 1, &got[1], 1, rb);
  const bool delivered = drive(uni, {1}, [&] { return ra.done() && rb.done(); });
  (void)b.cancel();  // a no-op once b is sent; ends its wait if it is stuck
  sender.join();
  ASSERT_TRUE(delivered);
  EXPECT_EQ(b.error(), ErrorCode::kOk);
  EXPECT_EQ(got[0], 'a');
  EXPECT_EQ(got[1], 'b');
}

TEST(Deadline, RendezvousRaceSettlesExactlyOnce) {
  // Deadline expiry races rendezvous completion: whichever settles first
  // wins the one-shot CAS; the loser must neither double-settle nor leave
  // the engine wedged.
  Config cfg;
  cfg.eager_limit = 64;
  Universe uni(cfg);
  std::vector<char> payload(4096, 'v');
  int completed = 0, expired = 0;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<char> got(4096);
    Request sreq, rreq;
    const int tag = 300 + iter;
    // Deadline tight enough to lose sometimes, long enough to win often.
    uni.rank(1).irecv(kWorldComm, 0, tag, got.data(), got.size(), rreq,
                      now_ns() + 200'000 * (iter % 4));
    uni.rank(0).isend(kWorldComm, 1, tag, payload.data(), payload.size(), sreq);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return rreq.done(); })) << iter;
    if (rreq.error() == ErrorCode::kOk) {
      ++completed;
      EXPECT_EQ(got[0], 'v');
    } else {
      ASSERT_EQ(rreq.error(), ErrorCode::kDeadlineExceeded) << iter;
      ++expired;
    }
    // The sender side must always terminate too (completion, or discard
    // against the receiver's tombstone when the deadline beat the match,
    // in which case cancel reaps it).
    const std::uint64_t until = now_ns() + 100'000'000ULL;
    while (!sreq.done() && now_ns() < until) {
      uni.rank(0).progress();
      uni.rank(1).progress();
    }
    if (!sreq.done()) (void)sreq.cancel();
  }
  // The race is real on any schedule: both outcomes must be reachable...
  // but don't flake a loaded CI box — only the settle-exactly-once and
  // no-hang guarantees above are hard assertions.
  EXPECT_GE(completed + expired, 50);
}

TEST(Deadline, CheckedOpsHonourConfigDeadline) {
  Config cfg;
  cfg.op_deadline_ns = 2'000'000;  // every checked op is bounded: 2 ms
  Universe uni(cfg);
  char buf = 0;
  // No sender: recv_checked must come back typed instead of spinning.
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    while (!stop.load(std::memory_order_relaxed)) uni.rank(1).progress();
  });
  const ErrorCode ec = uni.rank(1).world().recv_checked(0, 7, &buf, 1, nullptr);
  EXPECT_EQ(ec, ErrorCode::kDeadlineExceeded);
  stop.store(true, std::memory_order_relaxed);
  driver.join();  // must not outlive the stack universe it drives
}

TEST(Deadline, ConcurrentArmIsNeverLost) {
  // A receive posted while another thread's service step is sweeping an
  // earlier deadline must still expire. The race: the gate fires for a
  // cancelled receive's deadline; the new receive arms the gate (a no-op,
  // the gate is already lower) and posts just as the sweep finds nothing
  // left and raises the gate past it. Each round posts within ±1.5 µs of
  // the cancelled deadline to land in that window.
  Universe uni(Config{});
  Rank& rank = uni.rank(0);
  std::atomic<bool> stop{false};
  std::thread spinner([&] {
    while (!stop.load(std::memory_order_relaxed)) rank.progress();
  });
  constexpr int kRounds = 2000;
  int lost = 0;
  for (int i = 0; i < kRounds && lost == 0; ++i) {
    char buf = 0;
    const std::uint64_t armed = now_ns() + 30'000;
    Request decoy;
    rank.irecv(kWorldComm, 1, 7, &buf, 1, decoy, armed);
    (void)decoy.cancel();
    const std::uint64_t post_at = armed - 1'500 + 500 * static_cast<std::uint64_t>(i % 7);
    while (now_ns() < post_at) {
    }
    Request req;
    const std::uint64_t deadline = armed + 200'000;
    rank.irecv(kWorldComm, 1, 7, &buf, 1, req, deadline);
    while (now_ns() < deadline) {
    }
    // Past the deadline the poster drives progress itself, so only a gate
    // that forgot the receive can leave it pending.
    const std::uint64_t until = now_ns() + 2'000'000'000ULL;
    while (!req.done() && now_ns() < until) rank.progress();
    if (!req.done()) {
      ++lost;
      (void)req.cancel();
    } else {
      EXPECT_EQ(req.error(), ErrorCode::kDeadlineExceeded) << "round " << i;
    }
    while (!decoy.done()) rank.progress();
  }
  stop.store(true, std::memory_order_relaxed);
  spinner.join();
  EXPECT_EQ(lost, 0) << "a receive stayed pending 2 s past its deadline";
}

// --- quiesce timeout diagnostics + observability surface ---

TEST(Overload, QuiesceTimeoutReportsBacklog) {
  // A fully lossy fabric strands tracked entries, so quiesce cannot drain:
  // it must fail AND say why — a typed kQuiesceTimeout per backlogged rank
  // with the resource counts packed into Error::detail.
  // Pins its own fabric: the chaos env profile would override it.
  test_support::ScopedChaosEnvClear clear_env;
  Config cfg;
  cfg.faults.drop = 1.0;
  cfg.rto_ns = 2'000'000'000ULL;
  cfg.rto_max_ns = 4'000'000'000ULL;  // entries survive the whole timeout
  cfg.max_retries = 1000;
  Universe uni(cfg);
  ErrorCapture errors;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &errors);
  char byte = 'q';
  Request req;
  uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, req);
  EXPECT_FALSE(uni.quiesce(5'000'000));
  ASSERT_TRUE(errors.saw(ErrorCode::kQuiesceTimeout));
  EXPECT_GE(uni.rank(0).counters().snapshot().get(Counter::kQuiesceTimeouts), 1u);
  LockGuard guard(errors.lock);
  for (const Error& e : errors.errors) {
    if (e.code != ErrorCode::kQuiesceTimeout) continue;
    EXPECT_GE((e.detail >> 32) & 0xffff, 1u);  // tracked in-flight entries
  }
}

TEST(Overload, ObservabilityExportsOverloadState) {
  // Pins its own caps: the chaos env profile would override them.
  test_support::ScopedChaosEnvClear clear_env(kFaultsAndCaps);
  {
    Config cfg;
    cfg.unexpected_cap = 8;
    Universe uni(cfg);
    std::ostringstream os;
    uni.dump_observability(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"overload\""), std::string::npos);
    EXPECT_NE(json.find("\"unexpected_total\": 0, \"peers_at_cap\": 0, "
                        "\"tracker_in_flight\": 0,"),
              std::string::npos);
    EXPECT_NE(json.find("\"unexpected_cap\": 8, \"pool_cap_bytes\": 0, \"tracker_cap\": 0}"),
              std::string::npos);
    EXPECT_NE(json.find("\"payload_pool\""), std::string::npos);
    EXPECT_NE(json.find("\"high_water_bytes\""), std::string::npos);
  }

  // Rank 1 posts nothing, so the queue fills and one more packet
  // is held. The export reads the full queue (one peer at cap); after the
  // drain, which the held packet's re-presentation completes, it reads the
  // empty one.
  constexpr std::size_t kCap = 4;
  Config cfg;
  cfg.unexpected_cap = kCap;
  cfg.rto_ns = 200'000;  // the held packet re-presents quickly
  cfg.rto_max_ns = 2'000'000;
  Universe uni(cfg);
  char byte = 'q';
  for (std::size_t i = 0; i <= kCap; ++i) {
    Request req;
    uni.rank(0).isend(kWorldComm, 1, /*tag=*/2, &byte, 1, req);
    uni.rank(0).wait(req);
  }
  auto& match = uni.rank(1).comm_state(kWorldComm).match();
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    return match.unexpected_count() == kCap &&
           uni.rank(1).counters().get(Counter::kOverloadPausedPackets) != 0;
  }));
  const std::string full = overload_export(uni, 1);
  EXPECT_NE(full.find("\"unexpected_total\": 4, \"peers_at_cap\": 1,"), std::string::npos)
      << full;

  for (std::size_t i = 0; i <= kCap; ++i) {
    Request req;
    char got = 0;
    uni.rank(1).irecv(kWorldComm, 0, 2, &got, 1, req);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return req.done(); }));
    EXPECT_FALSE(req.failed());
  }
  const std::string drained = overload_export(uni, 1);
  EXPECT_NE(drained.find("\"unexpected_total\": 0, \"peers_at_cap\": 0,"), std::string::npos)
      << drained;
}

TEST(Overload, UncappedGovernorReportsNull) {
  // Uncapped on purpose: an env cap would make it capped.
  test_support::ScopedChaosEnvClear clear_env(kCapsOnly);
  Universe uni(Config{});
  EXPECT_EQ(uni.rank(0).overload_limits(), nullptr);
  std::ostringstream os;
  uni.dump_observability(os);
  EXPECT_NE(os.str().find("\"overload\": null"), std::string::npos);
}

}  // namespace
}  // namespace fairmpi
