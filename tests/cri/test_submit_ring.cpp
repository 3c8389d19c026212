// Submission-ring property tests (DESIGN.md §5f): multi-producer wraparound
// with exactly-once consumption, per-producer publish ordering, the
// work-word ring after a queued inject, and the full-ring bounce. The
// stress tests run the production protocol end to end — stack packet +
// ticket per submission, producers blocked until their ticket resolves —
// so TSan checks the [P3]/[C1]/[T1] edges exactly as inject() exercises
// them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fairmpi/cri/cri.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/fabric/submit_ring.hpp"

namespace fairmpi::fabric {
namespace {

TEST(SubmitRing, CapacityRoundsUpToPow2) {
  EXPECT_EQ(SubmitRing(5).capacity(), 8u);
  EXPECT_EQ(SubmitRing(8).capacity(), 8u);
  EXPECT_EQ(SubmitRing(0).capacity(), 2u);
}

TEST(SubmitRing, FullRingBouncesWithoutConsumingDescriptor) {
  SubmitRing ring(4);
  Packet pkt;
  SubmitTicket ticket;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push({&pkt, &ticket, i}).ok);
  }
  const SubmitPushOutcome full = ring.try_push({&pkt, &ticket, 99});
  EXPECT_FALSE(full.ok);
  // A bounced push leaves the ring intact: draining yields exactly the
  // four accepted descriptors, in claim order.
  std::vector<int> dsts;
  ring.drain([&](const SubmitDesc& d) {
    dsts.push_back(d.dst);
    d.ticket->status.store(static_cast<std::uint8_t>(SubmitStatus::kInjected),
                           std::memory_order_release);
  });
  EXPECT_EQ(dsts, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SubmitRing, QueuedInjectRingsTheWorkWord) {
  // A producer that finds the instance locked publishes a descriptor and
  // then rings its context's work word, so a progress visit knows there is
  // a submission to flush (DESIGN.md §5f "Work word").
  Fabric fabric({1});
  NetworkContext& ctx = fabric.nic(0).context(0);
  // A non-default ring size engages the funnel on any host.
  cri::CommResourceInstance inst(0, fabric, ctx, /*submit_entries=*/64);
  spc::CounterSet counters(1);
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  bool injected = false;
  std::thread producer;
  {
    LockGuard guard(inst.lock());
    producer = std::thread([&] { injected = inst.inject(/*dst=*/0, pkt, counters); });
    while (!ctx.work().rung()) std::this_thread::yield();
    EXPECT_TRUE(ctx.work().take());
    EXPECT_FALSE(ctx.work().rung());
    // The flush injects into this rank's own lane, which rings the word
    // again: the packet it delivered is work for the next visit.
    EXPECT_EQ(inst.flush_submissions(counters), 1u);
    EXPECT_TRUE(ctx.work().rung());
  }
  producer.join();  // its ticket resolved in the flush above
  EXPECT_TRUE(injected);
  EXPECT_EQ(ctx.rx().size_approx(), 1u);
  EXPECT_EQ(counters.get(spc::Counter::kSubmitQueued), 1u);
}

TEST(SubmitRing, WorkWordTakeClearsUntilTheNextRing) {
  // Every publish rings: there is no batching, so no publish waits for a
  // later one, and take() reports each ring it clears exactly once.
  Fabric fabric({1});
  NetworkContext& ctx = fabric.nic(0).context(0);
  EXPECT_FALSE(ctx.work().take());
  ASSERT_TRUE(ctx.try_push_completion(Completion{Completion::Kind::kRmaDone, nullptr}));
  ASSERT_TRUE(ctx.try_push_completion(Completion{Completion::Kind::kRmaDone, nullptr}));
  EXPECT_TRUE(ctx.work().rung());
  EXPECT_TRUE(ctx.work().take());
  EXPECT_FALSE(ctx.work().rung());
  EXPECT_FALSE(ctx.work().take());
  ASSERT_TRUE(ctx.rx().try_push(Packet{}));
  EXPECT_TRUE(ctx.work().take());
}

/// The property test: P producers push N submissions each through a ring
/// far smaller than P*N (forced wraparound), running the full production
/// protocol — each producer reuses one stack packet + ticket and spins
/// until the consumer resolves it. The consumer checks exactly-once
/// consumption and per-producer FIFO (slot claim order is program order
/// within one producer, so ids must arrive ascending per producer).
TEST(SubmitRing, StressManyProducersWraparoundExactlyOnceInOrder) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  SubmitRing ring(8);  // tiny: every producer laps the ring thousands of times

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop{false};
  // Single-consumer log, touched only by the consumer thread.
  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::atomic<std::uint64_t> order_violations{0};
  std::atomic<std::uint64_t> rejected{0};

  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = ring.drain([&](const SubmitDesc& d) {
        // [C1] made the producer's packet visible: imm carries
        // (producer << 32 | i), written before try_push.
        const std::uint64_t imm = d.pkt->hdr.imm;
        const auto producer = static_cast<std::size_t>(imm >> 32);
        const std::uint64_t i = imm & 0xffffffffu;
        if (producer >= kProducers || next_expected[producer] != i) {
          order_violations.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++next_expected[producer];
        }
        d.ticket->status.store(static_cast<std::uint8_t>(SubmitStatus::kInjected),
                               std::memory_order_release);
      });
      consumed.fetch_add(n, std::memory_order_relaxed);
      if (n == 0) std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Packet pkt;  // reused across submissions, exactly like eager_send
      SubmitTicket ticket;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        pkt.hdr.imm = (static_cast<std::uint64_t>(p) << 32) | i;
        ticket.status.store(static_cast<std::uint8_t>(SubmitStatus::kPending),
                            std::memory_order_relaxed);
        while (!ring.try_push({&pkt, &ticket, p}).ok) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();  // ring full: consumer will catch up
        }
        while (ticket.load_acquire() == SubmitStatus::kPending) {
          std::this_thread::yield();
        }
        // Ticket resolved: pkt and ticket are ours again ([T1]).
      }
    });
  }
  for (auto& t : producers) t.join();
  // Producers only return once every ticket resolved, so everything they
  // pushed has been consumed; stop the consumer and tally.
  stop.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(order_violations.load(), 0u);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[static_cast<std::size_t>(p)], kPerProducer) << "producer " << p;
  }
}

/// Producers with interleaved claims never see each other's half-written
/// descriptors: each descriptor's dst must equal the producer id encoded in
/// the packet it points at (both written between claim and publish).
TEST(SubmitRing, PublishedDescriptorsAreInternallyConsistent) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 10'000;
  SubmitRing ring(16);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop{false};

  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      consumed.fetch_add(ring.drain([&](const SubmitDesc& d) {
        if (static_cast<std::uint64_t>(d.dst) != (d.pkt->hdr.imm >> 32)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        d.ticket->status.store(static_cast<std::uint8_t>(SubmitStatus::kInjected),
                               std::memory_order_release);
      }), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Packet pkt;
      SubmitTicket ticket;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        pkt.hdr.imm = (static_cast<std::uint64_t>(p) << 32) | i;
        ticket.status.store(static_cast<std::uint8_t>(SubmitStatus::kPending),
                            std::memory_order_relaxed);
        while (!ring.try_push({&pkt, &ticket, p}).ok) std::this_thread::yield();
        while (ticket.load_acquire() == SubmitStatus::kPending) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace fairmpi::fabric
