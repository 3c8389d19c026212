#include "fairmpi/progress/progress.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace fairmpi::progress {
namespace {

using spc::Counter;

fabric::Packet make_pkt(std::uint32_t seq) {
  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.seq = seq;
  return pkt;
}

/// Counts extractions; optionally blocks inside each packet's handling to
/// probe mutual-exclusion properties of the engine designs.
class CountingSink : public PacketSink {
 public:
  std::size_t handle_packets(fabric::Packet*, std::size_t n, std::size_t&) override {
    for (std::size_t i = 0; i < n; ++i) handle_one();
    return n;
  }
  std::size_t handle_completion(const fabric::Completion&) override {
    completions.fetch_add(1, std::memory_order_relaxed);
    return 1;
  }

  void handle_one() {
    packets.fetch_add(1, std::memory_order_relaxed);
    if (hold_ns > 0) {
      const auto start = std::chrono::steady_clock::now();
      concurrent_now.fetch_add(1);
      while (std::chrono::steady_clock::now() - start < std::chrono::nanoseconds(hold_ns)) {
      }
      max_concurrent.store(std::max(max_concurrent.load(), concurrent_now.load()));
      concurrent_now.fetch_sub(1);
    }
  }

  std::atomic<std::size_t> packets{0};
  std::atomic<std::size_t> completions{0};
  long hold_ns = 0;
  std::atomic<int> concurrent_now{0};
  std::atomic<int> max_concurrent{0};
};

class ProgressTest : public ::testing::Test {
 protected:
  void build(int instances, cri::Assignment assign, ProgressMode mode, int batch = 64) {
    fabric_ = std::make_unique<fabric::Fabric>(std::vector<int>{instances});
    pool_ = std::make_unique<cri::CriPool>(*fabric_, 0, assign);
    engine_ = std::make_unique<ProgressEngine>(*pool_, sink_, mode, spc_, batch);
  }

  void inject(int ctx, int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(fabric_->nic(0).context(ctx).rx().try_push(make_pkt(0)));
    }
  }

  spc::CounterSet spc_{4};  // one CRI label per instance build() creates (max 4)
  CountingSink sink_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<cri::CriPool> pool_;
  std::unique_ptr<ProgressEngine> engine_;
};

TEST_F(ProgressTest, SerialDrainsAllInstances) {
  build(4, cri::Assignment::kRoundRobin, ProgressMode::kSerial);
  inject(0, 3);
  inject(2, 2);
  inject(3, 1);
  EXPECT_EQ(engine_->progress().completions, 6u);
  EXPECT_EQ(sink_.packets.load(), 6u);
  EXPECT_EQ(engine_->progress().completions, 0u);
}

TEST_F(ProgressTest, SerialRespectsBatchLimitPerInstance) {
  build(1, cri::Assignment::kRoundRobin, ProgressMode::kSerial, /*batch=*/4);
  inject(0, 10);
  EXPECT_EQ(engine_->progress().completions, 4u);
  EXPECT_EQ(engine_->progress().completions, 4u);
  EXPECT_EQ(engine_->progress().completions, 2u);
}

TEST_F(ProgressTest, SerialGateExcludesSecondThread) {
  // batch=1 so the holder's call consumes exactly one packet.
  build(1, cri::Assignment::kRoundRobin, ProgressMode::kSerial, /*batch=*/1);
  sink_.hold_ns = 50'000'000;  // 50 ms inside the sink
  inject(0, 1);
  std::thread holder([&] { engine_->progress(); });
  // Wait until the holder is inside the sink, then try to progress.
  while (sink_.concurrent_now.load() == 0) {
  }
  inject(0, 1);
  EXPECT_EQ(engine_->progress().completions, 0u);  // gate busy -> immediate return
  EXPECT_GE(spc_.get(Counter::kInstanceTrylockFail), 1u);
  holder.join();
  sink_.hold_ns = 0;
  EXPECT_EQ(engine_->progress().completions, 1u);  // second packet still there
}

TEST_F(ProgressTest, ConcurrentAllowsParallelExtraction) {
  build(2, cri::Assignment::kDedicated, ProgressMode::kConcurrent);
  sink_.hold_ns = 20'000'000;  // 20 ms
  inject(0, 1);
  inject(1, 1);
  std::thread a([&] { engine_->progress(); });
  std::thread b([&] { engine_->progress(); });
  a.join();
  b.join();
  EXPECT_EQ(sink_.packets.load(), 2u);
  // Both threads should have been inside the sink simultaneously (each on
  // its own dedicated instance).
  EXPECT_EQ(sink_.max_concurrent.load(), 2);
}

TEST_F(ProgressTest, ConcurrentOwnInstanceFirst) {
  build(4, cri::Assignment::kDedicated, ProgressMode::kConcurrent);
  const int own = pool_->dedicated_id();
  inject(own, 1);
  EXPECT_EQ(engine_->progress().completions, 1u);
  // Fallback sweep not needed: only own instance was touched.
}

TEST_F(ProgressTest, ConcurrentFallbackSweepFindsOrphanedInstances) {
  // Alg. 2 liveness: a completion sitting on an instance no thread owns is
  // still harvested by any progressing thread once its own instance is dry.
  build(4, cri::Assignment::kDedicated, ProgressMode::kConcurrent);
  const int own = pool_->dedicated_id();
  const int orphan = (own + 2) % 4;
  inject(orphan, 5);
  std::size_t total = 0;
  for (int i = 0; i < 10 && total < 5; ++i) total += engine_->progress().completions;
  EXPECT_EQ(total, 5u);
}

TEST_F(ProgressTest, ConcurrentSkipsLockedInstanceAndMovesOn) {
  build(2, cri::Assignment::kDedicated, ProgressMode::kConcurrent);
  const int own = pool_->dedicated_id();
  const int other = 1 - own;
  // Our own instance has work too, so its work word sends the visit to its
  // lock (an idle instance is never try-locked).
  inject(own, 1);
  inject(other, 1);
  // Hold our own instance's lock: progress must skip it (try-lock) and
  // still find the other instance's packet via the sweep.
  pool_->instance(own).lock().lock();
  EXPECT_EQ(engine_->progress().completions, 1u);
  pool_->instance(own).lock().unlock();
  EXPECT_GE(spc_.get(Counter::kInstanceTrylockFail), 1u);
  EXPECT_EQ(engine_->progress().completions, 1u);  // the skipped packet is still there
}

TEST_F(ProgressTest, CompletionQueueDrainedBeforePackets) {
  build(1, cri::Assignment::kRoundRobin, ProgressMode::kSerial);
  std::atomic<std::uint64_t> pending{1};
  fabric::Completion comp{fabric::Completion::Kind::kRmaDone, &pending};
  // CountingSink ignores the cookie; use the real kind routing only.
  ASSERT_TRUE(fabric_->nic(0).context(0).try_push_completion(comp));
  inject(0, 2);
  EXPECT_EQ(engine_->progress().completions, 3u);
  EXPECT_EQ(sink_.completions.load(), 1u);
  EXPECT_EQ(sink_.packets.load(), 2u);
}

TEST_F(ProgressTest, SpcCountsCallsAndCompletions) {
  build(1, cri::Assignment::kRoundRobin, ProgressMode::kSerial);
  inject(0, 2);
  engine_->progress();
  engine_->progress();
  EXPECT_EQ(spc_.get(Counter::kProgressCalls), 2u);
  EXPECT_EQ(spc_.get(Counter::kProgressCompletions), 2u);
}

TEST_F(ProgressTest, ManyThreadsManyInstancesNoLoss) {
  build(4, cri::Assignment::kDedicated, ProgressMode::kConcurrent);
  constexpr int kTotal = 20000;
  // Producer floods all 4 rings while 3 consumers progress concurrently.
  std::thread producer([&] {
    int sent = 0;
    while (sent < kTotal) {
      if (fabric_->nic(0).context(sent % 4).rx().try_push(make_pkt(0))) ++sent;
    }
  });
  std::vector<std::thread> consumers;
  for (int t = 0; t < 3; ++t) {
    consumers.emplace_back([&] {
      while (sink_.packets.load(std::memory_order_relaxed) < kTotal) {
        engine_->progress();
      }
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sink_.packets.load(), static_cast<std::size_t>(kTotal));
}

// --- the work word (DESIGN.md §5f "Work word") ---

TEST(Progress, DrainAfterBatchCapSeesLaterPublishes) {
  // A drain that fills its batch rings the word again; the next drain must
  // then re-read the lane's tail rather than pop only the count it cached,
  // or the packets published in between wait for a push that never comes.
  fabric::Fabric fabric({1});
  cri::CriPool pool(fabric, 0, cri::Assignment::kRoundRobin);
  spc::CounterSet spc(1);
  CountingSink sink;
  ProgressEngine engine(pool, sink, ProgressMode::kConcurrent, spc, /*batch=*/64);
  fabric::RxQueue& rx = fabric.nic(0).context(0).rx();
  for (std::uint32_t i = 0; i < 70; ++i) ASSERT_TRUE(rx.try_push(make_pkt(i)));
  EXPECT_EQ(engine.progress().completions, 64u);
  for (std::uint32_t i = 70; i < 75; ++i) ASSERT_TRUE(rx.try_push(make_pkt(i)));
  engine.progress();
  engine.progress();
  EXPECT_EQ(sink.packets.load(), 75u);
}

TEST(Progress, WorkWordNeverStrandsAPublish) {
  // Producers publish on RX lanes, on CQs and through the submission ring
  // while consumers progress. Once they are joined, a bounded number of
  // progress() calls must find everything: a publish whose word a drain
  // cleared without popping it would never be visited again.
  constexpr int kCtx = 4;
  constexpr int kLanePackets = 3000;  // per context
  constexpr int kCqEvents = 3000;     // per CQ producer
  constexpr int kInjects = 1500;      // per submitting thread
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    // Rank 1's contexts are only a lane source: hand-pushed packets carry
    // src_rank 1, so they own lane 1 of each of rank 0's contexts while
    // rank 0's instances inject into lane 0.
    fabric::Fabric fabric({kCtx, kCtx}, fabric::FabricParams{64, 64});
    cri::CriPool pool(fabric, 0, cri::Assignment::kDedicated, /*submit_ring_entries=*/8);
    spc::CounterSet spc(kCtx);
    CountingSink sink;
    ProgressEngine engine(pool, sink, ProgressMode::kConcurrent, spc, /*batch=*/8);
    std::vector<std::thread> producers;
    for (int c = 0; c < kCtx; ++c) {  // one producer per lane
      producers.emplace_back([&, c] {
        std::mt19937 rng(seed * 97 + static_cast<std::uint32_t>(c));
        fabric::NetworkContext& ctx = fabric.nic(0).context(c);
        for (int i = 0; i < kLanePackets; ++i) {
          fabric::Packet pkt = make_pkt(static_cast<std::uint32_t>(i));
          pkt.hdr.src_rank = 1;
          pkt.hdr.src_ctx = static_cast<std::uint16_t>(c);
          while (!ctx.rx().try_push(std::move(pkt))) std::this_thread::yield();
          if (rng() % 16 == 0) std::this_thread::yield();
        }
      });
    }
    for (int p = 0; p < 2; ++p) {  // CQs are multi-producer
      producers.emplace_back([&, p] {
        std::mt19937 rng(seed * 131 + static_cast<std::uint32_t>(p));
        for (int i = 0; i < kCqEvents; ++i) {
          fabric::NetworkContext& ctx = fabric.nic(0).context(static_cast<int>(rng() % kCtx));
          const fabric::Completion done{fabric::Completion::Kind::kRmaDone, nullptr};
          while (!ctx.try_push_completion(done)) std::this_thread::yield();
        }
      });
    }
    for (int p = 0; p < 2; ++p) {  // the submission funnel, toward rank 0
      producers.emplace_back([&, p] {
        std::mt19937 rng(seed * 173 + static_cast<std::uint32_t>(p));
        for (int i = 0; i < kInjects; ++i) {
          fabric::Packet pkt = make_pkt(static_cast<std::uint32_t>(i));
          cri::CommResourceInstance& inst = pool.instance(static_cast<int>(rng() % kCtx));
          while (!inst.inject(/*dst=*/0, pkt, spc)) std::this_thread::yield();
        }
      });
    }
    std::vector<std::thread> consumers;
    std::atomic<bool> stop{false};
    for (int t = 0; t < 2; ++t) {
      consumers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          if (!engine.progress().productive()) std::this_thread::yield();
        }
      });
    }
    for (auto& t : producers) t.join();
    stop.store(true, std::memory_order_release);
    for (auto& t : consumers) t.join();

    constexpr std::size_t kPackets = kCtx * kLanePackets + 2 * kInjects;
    constexpr std::size_t kEvents = 2 * kCqEvents;
    // Each call with work left drains at least one item, so this bound is
    // only reached when a published item is never visited.
    for (std::size_t i = 0; i < kPackets + kEvents; ++i) {
      if (sink.packets.load() == kPackets && sink.completions.load() == kEvents) break;
      engine.progress();
    }
    EXPECT_EQ(sink.packets.load(), kPackets);
    EXPECT_EQ(sink.completions.load(), kEvents);
  }
}

TEST(ProgressModeNames, Names) {
  EXPECT_STREQ(progress_mode_name(ProgressMode::kSerial), "serial");
  EXPECT_STREQ(progress_mode_name(ProgressMode::kConcurrent), "concurrent");
}

}  // namespace
}  // namespace fairmpi::progress
