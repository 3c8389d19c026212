// Observability layer tests: contention-profiler shards (TSan-exercised),
// CRI-utilization conservation against SPC totals, and exporter structure.
//
// obs::enabled() is a process-global switch; every test that flips it on
// restores it (and resets the contention counts) so suites stay
// order-independent.
// The one exception is the intern-past-cap test, which permanently fills
// the class registry — it is declared LAST so its suite runs last.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/obs/contention.hpp"
#include "support/scoped_chaos_env.hpp"

namespace fairmpi {
namespace {

using test_support::ScopedChaosEnvClear;

/// RAII: obs on for the scope, contention counts rebased to zero on both edges.
struct ObsScope {
  ObsScope() {
    obs::reset_contention_for_test();
    obs::set_enabled(true);
  }
  ~ObsScope() {
    obs::set_enabled(false);
    obs::reset_contention_for_test();
  }
};

/// Occurrences of `"key":` in an exported JSON document.
std::size_t count_key(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t n = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// Element count of every flat numeric array exported under `"key": [...]`.
std::vector<std::size_t> array_lengths(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": [";
  std::vector<std::size_t> out;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const std::size_t open = at + needle.size();
    const std::size_t close = json.find(']', open);
    const std::string body = json.substr(open, close - open);
    out.push_back(body.empty() ? 0 : 1 + static_cast<std::size_t>(
                                             std::count(body.begin(), body.end(), ',')));
  }
  return out;
}

/// Every unsigned value exported under `"key": N`, in document order.
std::vector<std::uint64_t> values_of(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::vector<std::uint64_t> out;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    out.push_back(std::strtoull(json.c_str() + at + needle.size(), nullptr, 10));
  }
  return out;
}

std::string dump(const Universe& uni) {
  std::ostringstream os;
  uni.dump_observability(os);
  return os.str();
}

const obs::ClassContention* find_class(const std::vector<obs::ClassContention>& all,
                                       const char* name) {
  for (const auto& c : all) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

// --- LockContention.* (name matches the CI TSan job's test filter) ---

TEST(LockContention, DisabledRecordsNothing) {
  obs::set_enabled(false);
  obs::reset_contention_for_test();
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.disabled");
  for (int i = 0; i < 100; ++i) {
    lock.lock();
    lock.unlock();
    ASSERT_TRUE(lock.try_lock());
    lock.unlock();
  }
  const auto all = obs::contention_snapshot();
  const auto* c = find_class(all, "obs.test.disabled");
  // The class is not even interned (nothing forces it while disabled); if a
  // future change interns eagerly, its cells must still read zero.
  if (c != nullptr) {
    EXPECT_EQ(c->acquires, 0u);
    EXPECT_EQ(c->trylock_fails, 0u);
  }
}

TEST(LockContention, CountsAcquiresAndTrylockFails) {
  ObsScope scope;
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.counts");
  constexpr int kOps = 1000;
  for (int i = 0; i < kOps; ++i) {
    lock.lock();
    lock.unlock();
  }
  lock.lock();
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(lock.try_lock());  // held by us: every probe fails
  }
  lock.unlock();

  const auto all = obs::contention_snapshot();
  const auto* c = find_class(all, "obs.test.counts");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->acquires, static_cast<std::uint64_t>(kOps) + 1);
  EXPECT_EQ(c->trylock_fails, 7u);
  EXPECT_EQ(c->rank, static_cast<std::uint16_t>(LockRank::kTestBase));
}

TEST(LockContention, AttributesWaitTimeUnderContention) {
  ObsScope scope;
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.contended");
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    lock.lock();
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
    }
    lock.unlock();
  });
  while (!held.load(std::memory_order_acquire)) {
  }
  std::thread waiter([&] {
    lock.lock();  // blocks until the holder releases
    lock.unlock();
  });
  // Give the waiter time to actually block on the lock before releasing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  holder.join();
  waiter.join();

  const auto all = obs::contention_snapshot();
  const auto* c = find_class(all, "obs.test.contended");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->acquires, 2u);
  EXPECT_GE(c->contended, 1u);
  EXPECT_GT(c->wait_ns, 0u);
}

// The TSan target: many threads pounding one class through private
// per-thread-slot shards must neither race nor lose counts.
TEST(LockContention, ShardsSumExactlyAcrossThreads) {
  ObsScope scope;
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.shards");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (lock.try_lock()) {
          lock.unlock();
        }
        lock.lock();
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto all = obs::contention_snapshot();
  const auto* c = find_class(all, "obs.test.shards");
  ASSERT_NE(c, nullptr);
  // Every blocking lock() is exactly one acquire; successful try_locks add
  // more, failed ones only bump trylock_fails — together they account for
  // every one of the kThreads * kOpsPerThread probes.
  const std::uint64_t blocking =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_GE(c->acquires, blocking);
  EXPECT_LE(c->acquires, 2 * blocking);
  EXPECT_EQ((c->acquires - blocking) + c->trylock_fails, blocking);
}

// --- CriUtilization.* (name matches the CI TSan job's test filter) ---

/// Conservation: with a pristine fabric, reliability off and only eager
/// traffic, every completed send is exactly one injection into some CRI and
/// exactly one packet drained from some CRI — so at quiescence the
/// per-instance counters must sum to the aggregate SPCs.
TEST(CriUtilization, InjectionsAndDrainsConserveAgainstSpc) {
  ScopedChaosEnvClear env;  // conservation requires a lossless fabric
  ObsScope scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.num_instances = 3;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  cfg.obs_enabled = true;
  Universe uni(cfg);

  constexpr int kMessages = 200;
  std::thread peer([&] {
    char buf[64];
    for (int i = 0; i < kMessages; ++i) {
      uni.rank(1).recv(kWorldComm, 0, /*tag=*/1, buf, sizeof buf);
      uni.rank(1).send(kWorldComm, 0, /*tag=*/2, buf, 16);
    }
  });
  {
    char buf[64] = "conservation";
    for (int i = 0; i < kMessages; ++i) {
      uni.rank(0).send(kWorldComm, 1, /*tag=*/1, buf, 32);
      uni.rank(0).recv(kWorldComm, 1, /*tag=*/2, buf, sizeof buf);
    }
  }
  peer.join();

  const spc::Snapshot total = uni.aggregate_counters();
  std::uint64_t injections = 0, pkts = 0, comps = 0, visits = 0, hist = 0;
  for (int r = 0; r < uni.num_ranks(); ++r) {
    const spc::Snapshot snap = uni.rank(r).counters().snapshot();
    for (int i = 0; i < uni.rank(r).pool().size(); ++i) {
      injections += snap.get(spc::CriMetric::kInjections, i);
      pkts += snap.get(spc::CriMetric::kPacketsDrained, i);
      comps += snap.get(spc::CriMetric::kCompletionsDrained, i);
      visits += snap.get(spc::CriMetric::kDrainVisits, i);
      for (const std::uint64_t h : snap.hist(spc::CriHist::kDrainBatch, i)) hist += h;
    }
  }
  EXPECT_EQ(injections, total.get(spc::Counter::kMessagesSent));
  EXPECT_EQ(pkts, injections);  // quiescent: everything injected was drained
  EXPECT_EQ(comps, 0u);         // eager sends complete inline, no CQ events
  EXPECT_GE(visits, hist);      // only non-empty drains land in the histogram
  EXPECT_EQ(total.get(spc::Counter::kMessagesSent),
            static_cast<std::uint64_t>(2 * kMessages));
}

TEST(CriUtilization, ObsOffLeavesCountersZero) {
  obs::set_enabled(false);
  Config cfg;
  cfg.num_ranks = 2;
  Universe uni(cfg);
  char buf[16];
  std::thread peer([&] { uni.rank(1).recv(kWorldComm, 0, 0, buf, sizeof buf); });
  uni.rank(0).send(kWorldComm, 1, 0, "off", 4);
  peer.join();
  for (int r = 0; r < uni.num_ranks(); ++r) {
    const spc::Snapshot snap = uni.rank(r).counters().snapshot();
    EXPECT_EQ(snap.get(spc::CriMetric::kInjections, 0), 0u);
    EXPECT_EQ(snap.get(spc::CriMetric::kDrainVisits, 0), 0u);
  }
}

// --- exporter structure ---

TEST(ObsExport, ChromeTraceWellFormedWithEvents) {
  ObsScope scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.trace_enabled = true;
  Universe uni(cfg);
  char buf[16];
  std::thread peer(
      [&] { uni.rank(1).recv(kWorldComm, 0, 0, buf, sizeof buf); });
  uni.rank(0).send(kWorldComm, 1, 0, "trace", 6);
  peer.join();

  std::ostringstream os;
  uni.export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"RecvPost\""), std::string::npos);
  // The drained eager packet produced a CriDrain async lane event.
  EXPECT_NE(json.find("\"name\":\"CriDrain\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"cri-"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

TEST(ObsExport, TracelessUniverseStillExportsValidSkeleton) {
  Config cfg;
  cfg.num_ranks = 1;
  Universe uni(cfg);
  std::ostringstream os;
  uni.export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(ObsExport, DumpObservabilityHasAllSections) {
  ObsScope scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.num_instances = 2;
  cfg.obs_enabled = true;
  Universe uni(cfg);
  char buf[16];
  std::thread peer(
      [&] { uni.rank(1).recv(kWorldComm, 0, 0, buf, sizeof buf); });
  uni.rank(0).send(kWorldComm, 1, 0, "dump", 5);
  peer.join();

  std::ostringstream os;
  uni.dump_observability(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"obs_enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"contention\""), std::string::npos);
  EXPECT_NE(json.find("\"cri.instance\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
  EXPECT_NE(json.find("\"injections\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"spc_total\""), std::string::npos);
  EXPECT_NE(json.find("\"MessagesSent\""), std::string::npos);
  // Braces balance (cheap structural sanity without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // Schema pin: every per-instance row (2 ranks x 2 CRIs) carries every
  // utilization key, and both histograms keep their 7 buckets.
  constexpr std::size_t kRows = 4;
  for (const char* key :
       {"injections", "packets_drained", "completions_drained", "own_trylock_misses",
        "orphan_sweeps", "drain_visits", "submit_claimed", "submit_cas_retries",
        "delivered", "rx_backlog"}) {
    EXPECT_EQ(count_key(json, key), kRows) << key;
  }
  // Every rank row carries the rendezvous facts; the dump carries its clock.
  EXPECT_EQ(count_key(json, "rndv_pending"), 2u);
  EXPECT_EQ(count_key(json, "rndv_oldest_age_ns"), 2u);
  EXPECT_EQ(count_key(json, "dumped_at_ns"), 1u);
  EXPECT_EQ(array_lengths(json, "drain_hist"), std::vector<std::size_t>(kRows, 7));
  EXPECT_EQ(array_lengths(json, "submit_flush_hist"), std::vector<std::size_t>(kRows, 7));
  // Every contention row carries the same six keys.
  const std::size_t classes = count_key(json, "wait_ns");
  EXPECT_GE(classes, 1u);
  for (const char* key : {"name", "rank", "acquires", "contended", "trylock_fails"}) {
    EXPECT_GE(count_key(json, key), classes) << key;
  }
  // ft off: the per-rank ft section is null.
  EXPECT_EQ(count_key(json, "detection_latency_ms_hist"), 0u);
}

TEST(ObsExport, DumpObservabilityFtSectionSchema) {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.ft_enabled = true;
  Universe uni(cfg);
  std::ostringstream os;
  uni.dump_observability(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ft\": true"), std::string::npos);
  EXPECT_EQ(count_key(json, "peers"), 2u);
  EXPECT_EQ(count_key(json, "suspects"), 2u);
  EXPECT_EQ(count_key(json, "deaths"), 2u);
  EXPECT_EQ(array_lengths(json, "detection_latency_ms_hist"),
            std::vector<std::size_t>(2, 8));
}

// --- Obs.*: stall facts read when the export is dumped ---

// A packet parked in rank 1's RX ring, with rank 1 never progressed: its
// CRI shows a backlog whose `delivered` does not move between two dumps.
TEST(Obs, ExportShowsFrozenBacklog) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  Universe uni(cfg);
  const std::uint32_t payload = 42;
  uni.rank(0).world().send(1, /*tag=*/0, &payload, sizeof payload);

  const std::string before = dump(uni);
  const std::string after = dump(uni);
  // One CRI per rank: row 1 is rank 1's.
  const std::vector<std::uint64_t> backlog0 = values_of(before, "rx_backlog");
  const std::vector<std::uint64_t> backlog1 = values_of(after, "rx_backlog");
  const std::vector<std::uint64_t> delivered0 = values_of(before, "delivered");
  const std::vector<std::uint64_t> delivered1 = values_of(after, "delivered");
  ASSERT_EQ(backlog0.size(), 2u);
  ASSERT_EQ(delivered1.size(), 2u);
  EXPECT_GE(backlog0[1], 1u);
  EXPECT_GE(backlog1[1], 1u);
  EXPECT_GE(delivered0[1], 1u);
  EXPECT_EQ(delivered1[1], delivered0[1]);
}

// A 64 KiB rendezvous send that rank 1 never matches: rank 0 exports one
// pending transfer, and its age grows by exactly the time between dumps.
TEST(Obs, ExportShowsAgingRendezvous) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  Universe uni(cfg);
  std::vector<std::byte> big(64 * 1024);
  Request req;
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/0, big.data(), big.size(), req);
  ASSERT_FALSE(req.done());

  const std::string before = dump(uni);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::string after = dump(uni);
  EXPECT_EQ(values_of(before, "rndv_pending"), (std::vector<std::uint64_t>{1, 0}));
  EXPECT_EQ(values_of(after, "rndv_pending"), (std::vector<std::uint64_t>{1, 0}));
  const std::uint64_t age0 = values_of(before, "rndv_oldest_age_ns")[0];
  const std::uint64_t age1 = values_of(after, "rndv_oldest_age_ns")[0];
  const std::uint64_t elapsed =
      values_of(after, "dumped_at_ns")[0] - values_of(before, "dumped_at_ns")[0];
  EXPECT_GE(elapsed, 1'000'000u);
  EXPECT_EQ(age1 - age0, elapsed);  // the same transfer, older
}

// --- declared last on purpose: exhausts the process-global class registry ---

TEST(LockContentionCapacity, InternPastCapIsNonFatal) {
  ObsScope scope;
  std::uint16_t last = 0;
  // Interning keeps the pointer, not a copy, so the names must outlive the
  // test. Anchor them through a never-destroyed static so LeakSanitizer
  // sees the over-cap ones (which the registry drops) as reachable — a
  // plain static vector would be destructed before the leak check runs.
  static std::vector<char*>* const names = new std::vector<char*>();
  for (int i = 0; i < obs::kMaxContentionClasses + 8; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "obs.test.cap.%d", i);
    names->push_back(strdup(name));
    last = obs::intern_contention_class(2000, names->back());
  }
  EXPECT_EQ(last, obs::kNoContentionClass);
  // Over-cap hooks are no-ops, not crashes.
  obs::note_uncontended_acquire(last);
  obs::note_contended_acquire(last, 123);
  obs::note_trylock_fail(last);
}

}  // namespace
}  // namespace fairmpi
