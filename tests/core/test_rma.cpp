// Integration tests for one-sided (RMA) communication.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "fairmpi/rma/window.hpp"

namespace fairmpi {
namespace {

using rma::WindowGroup;
using spc::Counter;

class RmaTest : public ::testing::Test {
 protected:
  void build(Config cfg, std::size_t bytes_per_rank = 4096) {
    uni_ = std::make_unique<Universe>(cfg);
    regions_.resize(static_cast<std::size_t>(cfg.num_ranks));
    std::vector<WindowGroup::Region> specs;
    for (auto& region : regions_) {
      region.assign(bytes_per_rank, std::byte{0});
      specs.push_back({region.data(), region.size()});
    }
    group_ = std::make_unique<WindowGroup>(*uni_, specs);
  }

  std::unique_ptr<Universe> uni_;
  std::vector<std::vector<std::byte>> regions_;
  std::unique_ptr<WindowGroup> group_;
};

TEST_F(RmaTest, PutThenFlushLandsAtTarget) {
  build(Config{});
  const char data[] = "rdma!";
  group_->window(0).put(/*target=*/1, /*disp=*/64, data, sizeof data);
  group_->window(0).flush(1);
  EXPECT_EQ(std::memcmp(regions_[1].data() + 64, data, sizeof data), 0);
  EXPECT_EQ(group_->window(0).pending(), 0u);
}

TEST_F(RmaTest, GetReadsRemoteMemory) {
  build(Config{});
  const char data[] = "remote";
  std::memcpy(regions_[1].data() + 128, data, sizeof data);
  char got[16] = {};
  group_->window(0).get(1, 128, got, sizeof data);
  group_->window(0).flush_all();
  EXPECT_EQ(std::memcmp(got, data, sizeof data), 0);
}

TEST_F(RmaTest, ZeroByteOpsComplete) {
  build(Config{});
  group_->window(0).put(1, 0, nullptr, 0);
  group_->window(0).flush_all();
  EXPECT_EQ(group_->window(0).pending(), 0u);
}

TEST_F(RmaTest, PendingReflectsOutstandingOps) {
  build(Config{});
  char byte = 'a';
  for (int i = 0; i < 10; ++i) group_->window(0).put(1, 0, &byte, 1);
  EXPECT_EQ(group_->window(0).pending(), 10u);
  group_->window(0).flush_all();
  EXPECT_EQ(group_->window(0).pending(), 0u);
}

TEST_F(RmaTest, FetchAddReturnsOldValue) {
  build(Config{});
  auto* cell = reinterpret_cast<std::uint64_t*>(regions_[1].data());
  *cell = 100;
  EXPECT_EQ(group_->window(0).fetch_add_u64(1, 0, 5), 100u);
  EXPECT_EQ(group_->window(0).fetch_add_u64(1, 0, 5), 105u);
  group_->window(0).flush_all();
  EXPECT_EQ(*cell, 110u);
}

TEST_F(RmaTest, AccumulatesAreAtomicAcrossThreadsAndRanks) {
  Config cfg;
  cfg.num_instances = 4;
  cfg.assignment = cri::Assignment::kDedicated;
  build(cfg);
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Initiators on both ranks target rank 1's first word.
      rma::Window& win = group_->window(t % 2);
      for (int i = 0; i < kIters; ++i) win.accumulate_add_u64(1, 0, 1);
      win.flush_all();
    });
  }
  for (auto& t : threads) t.join();
  const auto* cell = reinterpret_cast<const std::uint64_t*>(regions_[1].data());
  EXPECT_EQ(*cell, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_F(RmaTest, ConcurrentPutsToDisjointSlotsAllLand) {
  Config cfg;
  cfg.num_instances = 4;
  cfg.assignment = cri::Assignment::kDedicated;
  build(cfg, /*bytes_per_rank=*/4 * 1024);
  constexpr int kThreads = 4;
  constexpr int kSlots = 256;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = t; s < kSlots; s += kThreads) {
        const std::uint32_t value = 0xbeef0000u + static_cast<std::uint32_t>(s);
        group_->window(0).put(1, static_cast<std::size_t>(s) * 4, &value, 4);
      }
      group_->window(0).flush_all();
    });
  }
  for (auto& t : threads) t.join();
  for (int s = 0; s < kSlots; ++s) {
    std::uint32_t got = 0;
    std::memcpy(&got, regions_[1].data() + s * 4, 4);
    EXPECT_EQ(got, 0xbeef0000u + static_cast<std::uint32_t>(s)) << "slot " << s;
  }
}

TEST_F(RmaTest, FlushWithNoPendingReturnsImmediately) {
  build(Config{});
  group_->window(0).flush_all();  // must not hang
  EXPECT_EQ(group_->window(0).pending(), 0u);
  EXPECT_EQ(uni_->rank(0).counters().get(Counter::kRmaFlushes), 1u);
}

TEST_F(RmaTest, UnlockAllFlushes) {
  build(Config{});
  group_->window(0).lock_all();
  char byte = 'q';
  group_->window(0).put(1, 7, &byte, 1);
  group_->window(0).unlock_all();
  EXPECT_EQ(group_->window(0).pending(), 0u);
  EXPECT_EQ(static_cast<char>(regions_[1][7]), 'q');
}

TEST_F(RmaTest, SpcCountsOps) {
  build(Config{});
  char byte = 1;
  group_->window(0).put(1, 0, &byte, 1);
  group_->window(0).get(1, 0, &byte, 1);
  group_->window(0).accumulate_add_u64(1, 8, 1);
  group_->window(0).flush_all();
  auto& spc = uni_->rank(0).counters();
  EXPECT_EQ(spc.get(Counter::kRmaPuts), 1u);
  EXPECT_EQ(spc.get(Counter::kRmaGets), 1u);
  EXPECT_EQ(spc.get(Counter::kRmaAccumulates), 1u);
  EXPECT_EQ(spc.get(Counter::kRmaFlushes), 1u);
}

TEST_F(RmaTest, OutOfBoundsAborts) {
  build(Config{}, 256);
  char byte = 0;
  EXPECT_DEATH(group_->window(0).put(1, 256, &byte, 1), "bounds");
  EXPECT_DEATH(group_->window(0).get(1, 250, &byte, 100), "bounds");
  EXPECT_DEATH(group_->window(0).accumulate_add_u64(1, 3, 1), "aligned");
}

TEST_F(RmaTest, CqOverrunDrainsInline) {
  // More outstanding puts than CQ entries: post_completion must harvest
  // inline rather than deadlock.
  Config cfg;
  cfg.fabric.cq_entries = 8;
  build(cfg);
  char byte = 'z';
  for (int i = 0; i < 100; ++i) group_->window(0).put(1, 0, &byte, 1);
  group_->window(0).flush_all();
  EXPECT_EQ(group_->window(0).pending(), 0u);
}

TEST_F(RmaTest, FlushLeavesOtherInstancesAloneWhenOwnHasWork) {
  // Alg. 2 for flush: while the flusher's own CRI yields completions, it
  // takes no other CRI's lock. Another thread's completions, parked on the
  // other CRI, are still there after the flush — even though the flush
  // needs two visits (100 events, 64 per visit) to drain its own.
  Config cfg;
  cfg.num_instances = 2;
  cfg.assignment = cri::Assignment::kDedicated;
  build(cfg);
  rma::Window& win = group_->window(0);
  constexpr std::uint64_t kOwn = 100;
  constexpr std::uint64_t kOther = 10;
  char byte = 'x';
  std::thread other([&] {
    for (std::uint64_t i = 0; i < kOther; ++i) win.put(1, 0, &byte, 1);
  });
  other.join();
  for (std::uint64_t i = 0; i < kOwn; ++i) win.put(1, 1, &byte, 1);
  EXPECT_EQ(win.pending(), kOwn + kOther);
  win.flush_all();
  EXPECT_EQ(win.pending(), kOther);
  // A flush whose own CRI is empty sweeps the other one: orphaned
  // completions still drain.
  win.flush_process();
  EXPECT_EQ(win.pending(), 0u);
}

TEST_F(RmaTest, ManyThreadsScalePendingCorrectly) {
  Config cfg;
  cfg.num_instances = 2;
  build(cfg);
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Distinct per-thread displacement: concurrent *conflicting* puts to
    // one location within an epoch are erroneous MPI (and, in this
    // shared-memory engine, racing memcpys).
    threads.emplace_back([&, t] {
      char byte = 1;
      for (int i = 0; i < kIters; ++i) {
        group_->window(0).put(1, static_cast<std::size_t>(t), &byte, 1);
        if (i % 100 == 99) group_->window(0).flush_all();
      }
      group_->window(0).flush_all();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(group_->window(0).pending(), 0u);
  EXPECT_EQ(uni_->rank(0).counters().get(Counter::kRmaPuts),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_F(RmaTest, FenceSynchronizesEpochs) {
  Config cfg;
  cfg.num_ranks = 3;
  build(cfg);
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      rma::Window& win = group_->window(r);
      for (int it = 0; it < kIters; ++it) {
        // Everyone writes its rank into its slot of the next rank's
        // region, fences, then checks the value the previous rank wrote.
        const std::uint32_t value = static_cast<std::uint32_t>(it * 10 + r);
        const int next = (r + 1) % 3;
        win.put(next, static_cast<std::size_t>(r) * 4, &value, 4);
        win.fence();
        const int prev = (r + 2) % 3;
        std::uint32_t got = 0;
        std::memcpy(&got, regions_[static_cast<std::size_t>(r)].data() + prev * 4, 4);
        ASSERT_EQ(got, static_cast<std::uint32_t>(it * 10 + prev)) << "iter " << it;
        win.fence();  // second fence: writes of iteration it fully consumed
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(RmaTest, ExclusiveLockSerializesReadModifyWrite) {
  Config cfg;
  cfg.num_instances = 4;
  build(cfg);
  // Non-atomic read-modify-write under MPI_Win_lock(EXCLUSIVE): correct
  // only if the lock truly serializes.
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      rma::Window& win = group_->window(0);
      for (int i = 0; i < kIters; ++i) {
        win.lock(rma::Window::LockKind::kExclusive, 1);
        std::uint64_t value = 0;
        win.get(1, 0, &value, sizeof value);
        win.flush(1);
        ++value;
        win.put(1, 0, &value, sizeof value);
        win.unlock(1);  // flushes
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto* cell = reinterpret_cast<const std::uint64_t*>(regions_[1].data());
  EXPECT_EQ(*cell, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_F(RmaTest, SharedLockAdmitsConcurrentReaders) {
  build(Config{});
  rma::Window& win = group_->window(0);
  win.lock(rma::Window::LockKind::kShared, 1);
  std::atomic<bool> second_acquired{false};
  std::thread other([&] {
    win.lock(rma::Window::LockKind::kShared, 1);
    second_acquired.store(true);
    win.unlock(1);
  });
  other.join();
  EXPECT_TRUE(second_acquired.load());  // shared holders coexist
  win.unlock(1);
}

TEST_F(RmaTest, ExclusiveExcludesShared) {
  build(Config{});
  rma::Window& win0 = group_->window(0);
  rma::Window& win1 = group_->window(1);
  win0.lock(rma::Window::LockKind::kExclusive, 1);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    win1.lock(rma::Window::LockKind::kShared, 1);
    acquired.store(true);
    win1.unlock(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());  // blocked behind the exclusive holder
  win0.unlock(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST_F(RmaTest, UnlockWithoutLockAborts) {
  build(Config{});
  EXPECT_DEATH(group_->window(0).unlock(1), "without a held");
}

}  // namespace
}  // namespace fairmpi
