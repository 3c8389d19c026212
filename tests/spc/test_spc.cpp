#include "fairmpi/spc/spc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace fairmpi::spc {
namespace {

TEST(Spc, StartsAtZero) {
  CounterSet set;
  for (int i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(set.get(static_cast<Counter>(i)), 0u);
  }
}

TEST(Spc, AddAccumulates) {
  CounterSet set;
  set.add(Counter::kMessagesSent);
  set.add(Counter::kMessagesSent, 9);
  EXPECT_EQ(set.get(Counter::kMessagesSent), 10u);
  EXPECT_EQ(set.get(Counter::kMessagesReceived), 0u);
}

TEST(Spc, UpdateMaxKeepsHighWater) {
  CounterSet set;
  set.update_max(Counter::kOosBufferPeak, 5);
  set.update_max(Counter::kOosBufferPeak, 3);
  EXPECT_EQ(set.get(Counter::kOosBufferPeak), 5u);
  set.update_max(Counter::kOosBufferPeak, 12);
  EXPECT_EQ(set.get(Counter::kOosBufferPeak), 12u);
}

TEST(Spc, ConcurrentAddsDoNotLoseUpdates) {
  CounterSet set;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) set.add(Counter::kMatchAttempts);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(set.get(Counter::kMatchAttempts),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Spc, SnapshotDelta) {
  CounterSet set;
  set.add(Counter::kMessagesSent, 100);
  set.update_max(Counter::kOosBufferPeak, 7);
  const Snapshot before = set.snapshot();
  set.add(Counter::kMessagesSent, 23);
  set.update_max(Counter::kOosBufferPeak, 9);
  const Snapshot delta = set.snapshot().delta_since(before);
  EXPECT_EQ(delta.get(Counter::kMessagesSent), 23u);
  // High-water counters keep the later absolute value.
  EXPECT_EQ(delta.get(Counter::kOosBufferPeak), 9u);
}

TEST(Spc, MergeSumsAndMaxes) {
  Snapshot a, b;
  a.values[static_cast<int>(Counter::kMessagesSent)] = 10;
  b.values[static_cast<int>(Counter::kMessagesSent)] = 5;
  a.values[static_cast<int>(Counter::kOosBufferPeak)] = 3;
  b.values[static_cast<int>(Counter::kOosBufferPeak)] = 8;
  a.merge(b);
  EXPECT_EQ(a.get(Counter::kMessagesSent), 15u);
  EXPECT_EQ(a.get(Counter::kOosBufferPeak), 8u);
}

TEST(Spc, ResetClears) {
  CounterSet set;
  set.add(Counter::kRmaPuts, 3);
  set.reset();
  EXPECT_EQ(set.get(Counter::kRmaPuts), 0u);
}

TEST(Spc, ResetIsRebaseNotDestruction) {
  CounterSet set;
  set.add(Counter::kRmaPuts, 10);
  set.update_max(Counter::kOosBufferPeak, 6);
  set.reset();
  // Sums restart from zero and count exactly from the reset point...
  EXPECT_EQ(set.get(Counter::kRmaPuts), 0u);
  set.add(Counter::kRmaPuts, 4);
  EXPECT_EQ(set.get(Counter::kRmaPuts), 4u);
  // ...high-water marks are lifetime maxima and survive...
  EXPECT_EQ(set.get(Counter::kOosBufferPeak), 6u);
  // ...and the underlying cells keep the full history: lifetime totals are
  // reset-immune, which is what makes delta_since exact across resets.
  EXPECT_EQ(set.lifetime_snapshot().get(Counter::kRmaPuts), 14u);
}

// Regression test for the reset()/add() lost-update bug: the old reset()
// stored zero into the counters, so a fetch_add landing between the store
// and a racing add simply vanished. The rebase design never writes the
// cells, so the lifetime total must equal exactly the number of adds no
// matter how many resets ran concurrently.
TEST(Spc, ResetConcurrentWithAddsLosesNothing) {
  CounterSet set;
  constexpr int kWriters = 4;
  constexpr int kIters = 100000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) set.add(Counter::kRmaPuts);
    });
  }
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) set.reset();
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  resetter.join();

  constexpr std::uint64_t kTotal = std::uint64_t{kWriters} * kIters;
  EXPECT_EQ(set.lifetime_snapshot().get(Counter::kRmaPuts), kTotal);
  // The rebased view shows only the adds since the last reset — at most
  // everything, never more (and never negative / wrapped).
  EXPECT_LE(set.get(Counter::kRmaPuts), kTotal);
}

TEST(Spc, AllCountersHaveDistinctNames) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumCounters; ++i) {
    names.emplace_back(counter_name(static_cast<Counter>(i)));
    EXPECT_NE(names.back(), "Unknown");
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(Spc, ToStringContainsEveryCounter) {
  CounterSet set;
  set.add(Counter::kOutOfSequence, 42);
  const std::string s = set.snapshot().to_string();
  EXPECT_NE(s.find("OutOfSequence = 42"), std::string::npos);
  EXPECT_NE(s.find("MatchTimeNs"), std::string::npos);
}

// --- SpcRegistry.*: labelled cells and histograms (CI TSan filter: Spc) ---

TEST(SpcRegistry, Log2HistogramBuckets) {
  // Batch histograms: 1 | 2 | 3-4 | 5-8 | 9-16 | 17-32 | 33+ (the drain
  // batch cap is 64).
  const std::pair<std::size_t, int> batches[] = {{1, 0},  {2, 1},  {3, 2},  {4, 2},
                                                 {5, 3},  {8, 3},  {16, 4}, {32, 5},
                                                 {33, 6}, {64, 6}};
  for (const auto& [n, bucket] : batches) {
    CounterSet set(/*cri_labels=*/2);
    set.record(CriHist::kDrainBatch, 1, n);
    const Snapshot snap = set.snapshot();
    const auto hist = snap.hist(CriHist::kDrainBatch, 1);
    for (int b = 0; b < kBatchHistBuckets; ++b) {
      EXPECT_EQ(hist[static_cast<std::size_t>(b)], b == bucket ? 1u : 0u)
          << "batch " << n << ", bucket " << b;
    }
    // The record touched exactly one cell.
    EXPECT_EQ(std::count(snap.cells.begin(), snap.cells.end(), 1u), 1) << "batch " << n;
  }
  // ft detection latency in ms: bucket i counts < 2^i ms, the last overflows.
  const std::pair<std::uint64_t, int> latencies[] = {
      {0, 0}, {1, 1}, {3, 2}, {4, 3}, {63, 6}, {64, 7}, {100'000, 7}};
  for (const auto& [ms, bucket] : latencies) {
    CounterSet set;
    set.record(Hist::kFtDetectionMs, ms);
    const auto hist = set.snapshot().hist(Hist::kFtDetectionMs);
    for (int b = 0; b < kHistBuckets; ++b) {
      EXPECT_EQ(hist[static_cast<std::size_t>(b)], b == bucket ? 1u : 0u)
          << ms << " ms, bucket " << b;
    }
  }
}

// N threads add into several CRI labels while a reader snapshots; the rank
// totals are never written directly, only derived from the labels.
TEST(SpcRegistry, ConcurrentLabelledSumsEqualRankTotal) {
  constexpr int kLabels = 3;
  constexpr int kThreads = 4;
  constexpr int kIters = 30000;
  CounterSet set(kLabels);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const Snapshot snap = set.snapshot();
      std::uint64_t labelled = 0;
      for (int l = 0; l < kLabels; ++l) labelled += snap.get(CriMetric::kSubmitClaimed, l);
      EXPECT_EQ(snap.get(Counter::kSubmitQueued), labelled);
      EXPECT_GE(labelled, last);  // sums are monotone across snapshots
      last = labelled;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&set, t] {
      for (int i = 0; i < kIters; ++i) {
        set.add(CriMetric::kSubmitClaimed, (t + i) % kLabels);
        if (i % 2 == 0) set.add(CriMetric::kOwnTrylockMisses, t % kLabels);
        if (i % 2 == 1) set.add(Counter::kInstanceTrylockFail);  // an unlabelled miss
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const Snapshot snap = set.snapshot();
  constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kIters;
  std::uint64_t claimed = 0, own = 0;
  for (int l = 0; l < kLabels; ++l) {
    // Each thread cycles through the labels, so they share kTotal evenly.
    EXPECT_EQ(snap.get(CriMetric::kSubmitClaimed, l), kTotal / kLabels) << "label " << l;
    claimed += snap.get(CriMetric::kSubmitClaimed, l);
    own += snap.get(CriMetric::kOwnTrylockMisses, l);
  }
  EXPECT_EQ(claimed, kTotal);
  EXPECT_EQ(snap.get(Counter::kSubmitQueued), claimed);
  EXPECT_EQ(own, kTotal / 2);
  EXPECT_EQ(snap.get(Counter::kInstanceTrylockFail), kTotal);  // own + unlabelled
  EXPECT_EQ(set.get(Counter::kSubmitQueued), kTotal);
}

TEST(SpcRegistry, DeltaAndMergeCoverLabelledCells) {
  CounterSet a(2), b(1);
  a.add(CriMetric::kInjections, 1, 5);
  a.record(CriHist::kSubmitFlush, 0, 3);
  const Snapshot before = a.snapshot();
  a.add(CriMetric::kInjections, 1, 2);
  a.add(CriMetric::kSubmitDoorbells, 0);
  const Snapshot delta = a.snapshot().delta_since(before);
  EXPECT_EQ(delta.get(CriMetric::kInjections, 1), 2u);
  EXPECT_EQ(delta.hist(CriHist::kSubmitFlush, 0)[2], 0u);
  EXPECT_EQ(delta.get(Counter::kSubmitDoorbells), 1u);

  b.add(CriMetric::kInjections, 0, 7);
  Snapshot merged = b.snapshot();  // one label merged with two
  merged.merge(a.snapshot());
  EXPECT_EQ(merged.get(CriMetric::kInjections, 0), 7u);
  EXPECT_EQ(merged.get(CriMetric::kInjections, 1), 7u);
  EXPECT_EQ(merged.get(CriMetric::kInjections, 5), 0u);  // absent label reads 0
  EXPECT_EQ(merged.hist(CriHist::kSubmitFlush, 0)[2], 1u);
  EXPECT_EQ(merged.get(Counter::kSubmitDoorbells), 1u);
}

TEST(SpcRegistry, ResetRebasesLabelledCellsAndRollups) {
  CounterSet set(1);
  set.add(CriMetric::kSubmitClaimed, 0, 4);
  set.reset();
  EXPECT_EQ(set.get(Counter::kSubmitQueued), 0u);
  set.add(CriMetric::kSubmitClaimed, 0);
  EXPECT_EQ(set.snapshot().get(CriMetric::kSubmitClaimed, 0), 1u);
  EXPECT_EQ(set.get(Counter::kSubmitQueued), 1u);
  EXPECT_EQ(set.lifetime_snapshot().get(Counter::kSubmitQueued), 5u);
}

}  // namespace
}  // namespace fairmpi::spc
