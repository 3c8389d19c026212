// Overload control & graceful degradation tests (DESIGN.md §5h): bounded
// admission (kShed with receiver NACKs, kQueue with sender backpressure),
// sender-side pool/tracker caps, request cancellation, per-op deadlines,
// the degradation ladder, quiesce timeout diagnostics, and the
// observability surface.
//
// Every blocking drive is wall-clock bounded, so a regression that
// reintroduces a hang fails the test instead of wedging the suite. Suite
// names (Overload/Cancel/Deadline) are load-bearing: the CI tsan job
// selects these tests by that regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
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

// --- bounded admission: kShed (receiver drops + NACKs) ---

TEST(Overload, ShedFloodExactAccounting) {
  // One producer floods a consumer that posts nothing: the first `cap`
  // messages park as unexpected, every later one is shed and NACKed. The
  // flood must stay fully accounted: admitted + shed == sent, every shed
  // surfaced typed kReceiverOverloaded at the sender, and the ladder must
  // come back down after the drain.
  // Pins its own fabric: the chaos env profile would override it.
  test_support::ScopedChaosEnvClear clear_env;
  constexpr std::size_t kCap = 8;
  constexpr int kSent = 64;
  Config cfg;
  cfg.reliable = true;  // NACKs need the reliability tracker
  cfg.unexpected_cap = kCap;
  cfg.unexpected_policy = overload::Policy::kShed;
  // Slow retransmit clock: a pristine fabric needs none, and an early
  // retransmit racing its own NACK would only add (correct but noisy)
  // shed-duplicate traffic to the accounting below.
  cfg.rto_ns = 2'000'000'000ULL;
  cfg.rto_max_ns = 4'000'000'000ULL;
  Universe uni(cfg);
  ErrorCapture sender_errors;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &sender_errors);

  std::atomic<bool> sent_all{false};
  std::thread producer([&] {
    char byte = 'x';
    for (int i = 0; i < kSent; ++i) {
      Request req;
      uni.rank(0).isend(kWorldComm, 1, /*tag=*/5, &byte, 1, req);
      uni.rank(0).wait(req);  // eager: completes at injection
    }
    sent_all.store(true, std::memory_order_release);
  });
  // Consumer progresses (so it sheds + NACKs) but posts no receives until
  // the flood is over and every sender-side tracker entry is settled.
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    return sent_all.load(std::memory_order_acquire) &&
           sender_errors.count(ErrorCode::kReceiverOverloaded) ==
               kSent - kCap;
  }));
  producer.join();

  auto& match = uni.rank(1).comm_state(kWorldComm).match();
  EXPECT_EQ(match.unexpected_count(), kCap);
  const auto consumer = uni.rank(1).counters().snapshot();
  EXPECT_EQ(consumer.get(Counter::kOverloadShedMessages), kSent - kCap);
  EXPECT_EQ(consumer.get(Counter::kOverloadNacksSent), kSent - kCap);
  // The ladder sees the still-full queue (pressure 100%). Sampling runs on
  // a time cadence, so spin the consumer through a sampling window before
  // asserting.
  {
    const std::uint64_t until = now_ns() + 5'000'000'000ULL;
    while (uni.rank(1).governor().level() == overload::Level::kHealthy &&
           now_ns() < until) {
      uni.rank(1).progress();
    }
  }
  EXPECT_NE(uni.rank(1).governor().level(), overload::Level::kHealthy);

  // Drain: exactly the admitted messages are deliverable.
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < kCap; ++i) {
    Request req;
    char got = 0;
    uni.rank(1).irecv(kWorldComm, 0, 5, &got, 1, req);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return req.done(); }));
    if (!req.failed()) ++delivered;
  }
  EXPECT_EQ(delivered, kCap);
  // Exact accounting: Σ admitted + Σ shed == Σ sent.
  const auto after = uni.rank(1).counters().snapshot();
  EXPECT_EQ(after.get(Counter::kMessagesReceived) +
                after.get(Counter::kOverloadShedMessages),
            static_cast<std::uint64_t>(kSent));
  // Hysteresis: with the queue drained the ladder returns to kHealthy
  // (sampling is throttled, so spin the progress loop through a window).
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (uni.rank(1).governor().level() != overload::Level::kHealthy &&
         now_ns() < deadline) {
    uni.rank(1).progress();
  }
  EXPECT_EQ(uni.rank(1).governor().level(), overload::Level::kHealthy);
}

TEST(Overload, ShedMultiProducerPerPeerCap) {
  // 3 producers vs 1 slow consumer (the seeded 4:1 incast): the cap is
  // per-peer, so each producer gets its own admitted quota and its own
  // shed count; the totals must still balance exactly.
  // Pins its own fabric: the chaos env profile would override it.
  test_support::ScopedChaosEnvClear clear_env;
  constexpr std::size_t kCap = 4;
  constexpr int kPerProducer = 32;
  Config cfg;
  cfg.num_ranks = 4;
  cfg.reliable = true;
  cfg.unexpected_cap = kCap;
  cfg.unexpected_policy = overload::Policy::kShed;
  cfg.rto_ns = 2'000'000'000ULL;
  cfg.rto_max_ns = 4'000'000'000ULL;
  Universe uni(cfg);
  std::vector<ErrorCapture> errors(3);
  for (int r = 1; r < 4; ++r) {
    uni.rank(r).set_error_sink(ErrorCapture::sink, &errors[r - 1]);
  }

  std::atomic<int> done_producers{0};
  std::vector<std::thread> producers;
  for (int r = 1; r < 4; ++r) {
    producers.emplace_back([&, r] {
      char byte = static_cast<char>('a' + r);
      for (int i = 0; i < kPerProducer; ++i) {
        Request req;
        uni.rank(r).isend(kWorldComm, 0, /*tag=*/9, &byte, 1, req);
        uni.rank(r).wait(req);
      }
      done_producers.fetch_add(1, std::memory_order_release);
    });
  }
  ASSERT_TRUE(drive(uni, {0, 1, 2, 3}, [&] {
    if (done_producers.load(std::memory_order_acquire) != 3) return false;
    std::size_t nacked = 0;
    for (auto& e : errors) nacked += e.count(ErrorCode::kReceiverOverloaded);
    return nacked == 3 * (kPerProducer - kCap);
  }));
  for (auto& t : producers) t.join();

  auto& match = uni.rank(0).comm_state(kWorldComm).match();
  EXPECT_EQ(match.unexpected_count(), 3 * kCap);
  // Every producer was shed the same amount — the cap is per-peer, so one
  // aggressive peer cannot consume another's quota.
  for (auto& e : errors) {
    EXPECT_EQ(e.count(ErrorCode::kReceiverOverloaded), kPerProducer - kCap);
  }
  // Drain everything admitted and balance the books.
  for (std::size_t i = 0; i < 3 * kCap; ++i) {
    Request req;
    char got = 0;
    uni.rank(0).irecv(kWorldComm, kAnySource, 9, &got, 1, req);
    ASSERT_TRUE(drive(uni, {0, 1, 2, 3}, [&] { return req.done(); }));
    EXPECT_FALSE(req.failed());
  }
  const auto snap = uni.rank(0).counters().snapshot();
  EXPECT_EQ(snap.get(Counter::kMessagesReceived) +
                snap.get(Counter::kOverloadShedMessages),
            static_cast<std::uint64_t>(3 * kPerProducer));
}

// --- bounded admission: one park limit for both policies ---

/// One capped flood: rank 0 sends kSent messages to a slow consumer on
/// rank 1 that reads one at a time, sampling its queues on every progress
/// visit. Under both policies the receiver defers a packet whose distance
/// ahead of the in-order frontier plus the unexpected count reaches the
/// cap, so fewer than kCap packets ever park and the queue never exceeds
/// kCap, on any placement and on a lossy fabric. The policies differ only
/// with the queue at cap: kQueue pauses every packet unanswered, so
/// nothing is lost; kShed NACKs the in-sequence head, so the books balance
/// as received + shed == sent with every shed surfaced typed exactly once
/// at the sender. With `fill_first` the consumer posts
/// nothing until the queue is refused at cap (kQueue latches the peer
/// paused, kShed sheds), so the bound is checked with the queue full;
/// without it the consumer streams from the start, so fresh packets keep
/// arriving while a deferred head waits. A nonzero `drop` runs the flood
/// over a seeded lossy fabric, where gaps in the sequence stream are
/// normal and parking is what the park limit bounds.
void check_queue_flood(overload::Policy policy, bool fill_first, double drop) {
  constexpr std::size_t kCap = 16;
  constexpr int kSent = 256;
  const bool shed_policy = policy == overload::Policy::kShed;
  // A lossy row pins its own fabric: the chaos env profile would override it.
  std::optional<test_support::ScopedChaosEnvClear> clear_env;
  if (drop > 0.0) clear_env.emplace();
  Config cfg;
  cfg.unexpected_cap = kCap;  // implies reliable: deferral needs the retransmit clock
  cfg.unexpected_policy = policy;
  cfg.faults.drop = drop;
  cfg.faults.seed = 7;
  cfg.rto_ns = 200'000;      // fast retries so deferrals re-present quickly
  cfg.rto_max_ns = 2'000'000;
  cfg.max_retries = 1'000'000;  // deferral is backpressure, not exhaustion
  Universe uni(cfg);
  ErrorCapture sender_errors;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &sender_errors);
  const auto shed = [&] {
    return static_cast<int>(uni.rank(1).counters().get(Counter::kOverloadShedMessages));
  };

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
    // Fill: progress without posting until the peer is refused at cap.
    const Counter refused =
        shed_policy ? Counter::kOverloadShedMessages : Counter::kOverloadPausedPeers;
    const std::uint64_t fill_deadline = now_ns() + 10'000'000'000ULL;
    while (fill_first && uni.rank(1).counters().get(refused) == 0 &&
           now_ns() < fill_deadline) {
      progress_and_sample();
    }
    // Drain: the slow consumer reads one message at a time until every
    // sent message is either received or shed.
    const auto balanced = [&] {
      return received.load(std::memory_order_acquire) + shed() >= kSent;
    };
    while (!balanced()) {
      Request req;
      char got = 0;
      uni.rank(1).irecv(kWorldComm, 0, /*tag=*/3, &got, 1, req);
      const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
      while (!req.done() && !balanced() && now_ns() < deadline) progress_and_sample();
      // The last messages were shed: nothing is left for this receive.
      if (!req.done() && balanced()) (void)req.cancel();
      if (req.done() && req.error() == ErrorCode::kCancelled) break;
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
  ASSERT_FALSE(consumer_stuck.load(std::memory_order_acquire));
  ASSERT_EQ(received.load(std::memory_order_acquire) + shed(), kSent);
  // A NACK can be lost on a lossy fabric; the retransmit it provokes is
  // re-NACKed, so keep both ranks progressing until every shed surfaced.
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    return static_cast<int>(sender_errors.count(ErrorCode::kReceiverOverloaded)) == shed();
  }));

  ::testing::Test::RecordProperty("max_unexpected", static_cast<int>(max_unexpected));
  ::testing::Test::RecordProperty("max_parked", static_cast<int>(max_parked));
  ::testing::Test::RecordProperty("shed", shed());
  const auto snap = uni.rank(1).counters().snapshot();
  if (fill_first) {
    // The queue was refused at cap with the consumer not posting.
    EXPECT_GE(snap.get(shed_policy ? Counter::kOverloadShedMessages
                                   : Counter::kOverloadPausedPeers),
              1u);
    EXPECT_GE(max_unexpected, kCap);
  }
  // The invariants: fewer than kCap parked, the queue within kCap.
  EXPECT_LE(max_unexpected, kCap);
  EXPECT_LT(max_parked, kCap);
  if (!shed_policy) {
    // Zero loss, zero shed: kQueue never drops.
    EXPECT_EQ(snap.get(Counter::kOverloadShedMessages), 0u);
    EXPECT_EQ(snap.get(Counter::kOverloadNacksSent), 0u);
  }
  // Every shed surfaced typed exactly once, and nothing else failed:
  // deferral never strands a delivered packet's re-ack behind the cap (the
  // sender would end in kRetryExhausted).
  EXPECT_EQ(sender_errors.errors.size(), static_cast<std::size_t>(shed()))
      << sender_errors.errors.size() << " sender errors, " << shed() << " shed";
}

TEST(Overload, QueuePolicyBoundsQueueWithoutLoss) {
  check_queue_flood(overload::Policy::kQueue, /*fill_first=*/true, /*drop=*/0.0);
}

TEST(Overload, QueuePolicyBoundsQueueWhileStreaming) {
  check_queue_flood(overload::Policy::kQueue, /*fill_first=*/false, /*drop=*/0.0);
}

TEST(Overload, QueuePolicyBoundsQueueOnLossyFabric) {
  check_queue_flood(overload::Policy::kQueue, /*fill_first=*/true, /*drop=*/0.2);
}

TEST(Overload, ShedPolicyBoundsQueueWhileStreaming) {
  check_queue_flood(overload::Policy::kShed, /*fill_first=*/false, /*drop=*/0.0);
}

TEST(Overload, ShedPolicyBoundsQueueOnLossyFabric) {
  check_queue_flood(overload::Policy::kShed, /*fill_first=*/true, /*drop=*/0.2);
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
  // coming: in order, far ahead (deferred) and as repeats of an admitted
  // and of a refused seq. Source 2 interleaves below the cap.
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
  for (const overload::Policy policy : {overload::Policy::kShed, overload::Policy::kQueue}) {
    SCOPED_TRACE(policy == overload::Policy::kShed ? "kShed" : "kQueue");
    overload::Limits lim;
    lim.unexpected_cap = 4;
    lim.unexpected_policy = policy;
    struct Side {
      explicit Side(const overload::Limits& l) : gov(l), eng(3, false, spc, true) {
        eng.set_overload(&gov);
      }
      spc::CounterSet spc;
      overload::Governor gov;
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
    const auto refused = policy == overload::Policy::kShed ? match::Admission::kShed
                                                           : match::Admission::kPaused;
    EXPECT_NE(std::count(run.verdicts.begin(), run.verdicts.end(), refused), 0);
    EXPECT_NE(std::count(run.verdicts.begin(), run.verdicts.end(),
                         match::Admission::kDeferred),
              0);
    for (int c = 0; c < spc::kNumCounters; ++c) {
      const auto counter = static_cast<Counter>(c);
      if (counter == Counter::kMatchTimeNs) continue;  // wall time, not behaviour
      EXPECT_EQ(run.spc.get(counter), single.spc.get(counter)) << "counter " << c;
    }
    EXPECT_EQ(run.eng.unexpected_count(), single.eng.unexpected_count());
    EXPECT_EQ(run.eng.reorder_buffered(), single.eng.reorder_buffered());
    EXPECT_EQ(run.gov.paused_peers(), single.gov.paused_peers());
  }
}

TEST(Overload, UnexpectedCapImpliesReliable) {
  // Without acks a shed packet is silent loss and a deferred one is never
  // re-presented, so any unexpected-queue cap switches reliability on.
  for (const overload::Policy policy : {overload::Policy::kShed, overload::Policy::kQueue}) {
    Config cfg;
    cfg.unexpected_cap = 4;
    cfg.unexpected_policy = policy;
    ASSERT_FALSE(cfg.reliable);
    Universe uni(cfg);
    ASSERT_TRUE(uni.config().reliable) << overload::policy_name(policy);
  }
}

// --- sender-side admission: payload-pool and tracker caps ---

TEST(Overload, PoolCapShedFailsLocalTyped) {
  // Pins its own fabric: the chaos env profile would override it.
  test_support::ScopedChaosEnvClear clear_env;
  fabric::reset_payload_pool_high_water();
  Config cfg;
  cfg.payload_pool_cap_bytes = 1;  // any charged payload saturates the cap
  cfg.payload_pool_policy = overload::Policy::kShed;
  Universe uni(cfg);
  // Payloads <= kInlineBytes ride inline in the ring slot and never touch
  // the pool — the cap only sees pooled bytes, so send bigger than that.
  std::vector<char> payload(256, 'p');
  Request first;
  uni.rank(0).isend(kWorldComm, 1, 1, payload.data(), payload.size(), first);
  uni.rank(0).wait(first);
  EXPECT_FALSE(first.failed());  // pool was empty at admission
  Request second;
  uni.rank(0).isend(kWorldComm, 1, 1, payload.data(), payload.size(), second);
  uni.rank(0).wait(second);
  EXPECT_TRUE(second.failed());
  EXPECT_EQ(second.error(), ErrorCode::kLocalOverloaded);
  // Draining the first message releases its payload; sends work again.
  std::vector<char> got(256);
  Request rreq;
  uni.rank(1).irecv(kWorldComm, 0, 1, got.data(), got.size(), rreq);
  ASSERT_TRUE(drive(uni, {0, 1}, [&] { return rreq.done(); }));
  Request third;
  uni.rank(0).isend(kWorldComm, 1, 1, payload.data(), payload.size(), third);
  uni.rank(0).wait(third);
  EXPECT_FALSE(third.failed());
}

TEST(Overload, PoolHighWaterStaysWithinCap) {
  fabric::reset_payload_pool_high_water();
  constexpr std::uint64_t kPoolCap = 8 * 1024;
  Config cfg;
  cfg.payload_pool_cap_bytes = kPoolCap;
  cfg.payload_pool_policy = overload::Policy::kQueue;
  Universe uni(cfg);
  // Consumer preposts everything so the flood drains; the cap + kQueue
  // throttle keeps the pool's high-water bounded the whole way.
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

TEST(Overload, TrackerCapShedFailsLocalTyped) {
  Config cfg;
  cfg.reliable = true;
  cfg.tracker_cap = 2;
  cfg.tracker_policy = overload::Policy::kShed;
  cfg.rto_ns = 2'000'000'000ULL;
  cfg.rto_max_ns = 4'000'000'000ULL;  // no retransmit noise while the peer idles
  Universe uni(cfg);
  char byte = 't';
  Request a, b, c;
  uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, a);
  uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, b);
  EXPECT_FALSE(a.failed());
  EXPECT_FALSE(b.failed());
  // Two unacked entries in flight (the peer never progressed): at cap.
  uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, c);
  uni.rank(0).wait(c);
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(c.error(), ErrorCode::kLocalOverloaded);
  // Let the peer ack; the tracker drains and admission reopens.
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    Request probe;
    uni.rank(0).isend(kWorldComm, 1, 1, &byte, 1, probe);
    uni.rank(0).wait(probe);
    return !probe.failed();
  }));
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

TEST(Deadline, WindowExpiryLeavesNoSequenceHole) {
  // A send that leaves the window gate typed — its deadline passed, or
  // another thread cancelled it — must not have consumed a sequence
  // number: admission runs before the ticket, so the next message on the
  // link still matches instead of parking behind a hole forever.
  for (const bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancel" : "deadline");
    Config cfg;
    cfg.reliable = true;
    cfg.reliability_window = 1;
    cfg.send_retry_limit = 0;  // unbounded retries: only the exit under test ends the wait
    Universe uni(cfg);
    char a_byte = 'a';
    Request a;
    uni.rank(0).isend(kWorldComm, 1, 1, &a_byte, 1, a);  // fills the window
    EXPECT_FALSE(a.failed());
    char b_byte = 'b';
    Request b;
    if (cancel) {
      // Cancel once b is blocked in the gate (it has started waiting).
      const std::uint64_t waits = uni.rank(0).counters().get(Counter::kSendBackpressure);
      std::thread canceller([&] {
        while (uni.rank(0).counters().get(Counter::kSendBackpressure) == waits) {
          std::this_thread::yield();
        }
        (void)b.cancel();
      });
      uni.rank(0).isend(kWorldComm, 1, 1, &b_byte, 1, b);
      canceller.join();
      EXPECT_EQ(b.error(), ErrorCode::kCancelled);
    } else {
      uni.rank(0).isend(kWorldComm, 1, 1, &b_byte, 1, b, now_ns() + 2'000'000);
      uni.rank(0).wait(b);
      EXPECT_EQ(b.error(), ErrorCode::kDeadlineExceeded);
    }
    // Receive a: its ack reopens the window.
    char got = 0;
    Request ra;
    uni.rank(1).irecv(kWorldComm, 0, 1, &got, 1, ra);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return ra.done(); }));
    EXPECT_EQ(got, 'a');
    // c must match: b left no hole in the sequence stream.
    char c_byte = 'c';
    Request rc;
    uni.rank(1).irecv(kWorldComm, 0, 2, &got, 1, rc);
    Request c;
    uni.rank(0).isend(kWorldComm, 1, 2, &c_byte, 1, c);
    ASSERT_TRUE(drive(uni, {0, 1}, [&] { return rc.done(); }));
    EXPECT_FALSE(rc.failed());
    EXPECT_EQ(got, 'c');
  }
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
  Config cfg;
  cfg.unexpected_cap = 8;
  cfg.unexpected_policy = overload::Policy::kShed;
  cfg.reliable = true;
  Universe uni(cfg);
  std::ostringstream os;
  uni.dump_observability(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"overload\""), std::string::npos);
  EXPECT_NE(json.find("\"level\": \"healthy\""), std::string::npos);
  EXPECT_NE(json.find("\"unexpected_policy\": \"shed\""), std::string::npos);
  EXPECT_NE(json.find("\"payload_pool\""), std::string::npos);
  EXPECT_NE(json.find("\"high_water_bytes\""), std::string::npos);
}

TEST(Overload, UncappedGovernorReportsNull) {
  Universe uni(Config{});
  EXPECT_FALSE(uni.rank(0).governor().enabled());
  std::ostringstream os;
  uni.dump_observability(os);
  EXPECT_NE(os.str().find("\"overload\": null"), std::string::npos);
}

}  // namespace
}  // namespace fairmpi
