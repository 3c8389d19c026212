// Failure tolerance of the §5i collective algorithms: a rank killed
// mid-tree (or mid-ring) must settle EVERY surviving participant with a
// typed code — no survivor may hang waiting on a corpse, and none may
// return kOk for a collective that could not have completed. Suite name
// carries "Coll" for the CI regexes; the ft-profile chaos job repeats
// these under seeded kills.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fairmpi/coll/coll.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi {
namespace {

using common::ErrorCode;
using spc::Counter;

Config ft_config(int ranks) {
  Config cfg;
  cfg.num_ranks = ranks;
  cfg.ft_enabled = true;
  cfg.reliable = true;
  cfg.ft_heartbeat_ns = 50'000;
  cfg.ft_suspect_ns = 200'000;
  cfg.ft_strikes = 2;
  // Deadline backstop (§5h): a survivor whose tree edge does NOT touch the
  // corpse (e.g. a leaf whose parent bailed out before forwarding) has no
  // failed peer to propagate from — the per-collective deadline is what
  // settles it typed instead of hanging.
  cfg.op_deadline_ns = 100'000'000;
  return cfg;
}

/// Run `body(comm, rank)` on one thread per SURVIVING rank after killing
/// `victim` pre-entry; collect every survivor's returned code.
template <typename Body>
std::vector<ErrorCode> survivors_run(int n, int victim, Body body) {
  Universe uni(ft_config(n));
  uni.fabric().injector()->kill_rank(victim);
  std::vector<ErrorCode> codes(static_cast<std::size_t>(n), ErrorCode::kOk);
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) {
    if (r == victim) continue;
    threads.emplace_back([&, r] {
      codes[static_cast<std::size_t>(r)] = body(uni.rank(r).world(), r);
    });
  }
  for (auto& t : threads) t.join();
  return codes;
}

TEST(CollFt, TreeAllreduceMidTreeKillSettlesAllSurvivorsTyped) {
  // Victim 2 sits mid-tree at n=5 (it both combines and forwards). An
  // allreduce needs every rank's contribution, so no survivor can complete:
  // ranks adjacent to the corpse fail via peer-failed propagation, the
  // rest via the per-collective deadline — every one settles typed, none
  // hangs.
  const auto codes = survivors_run(5, 2, [](Communicator comm, int) {
    std::int64_t mine = 3, sum = 0;
    return coll::allreduce(comm, &mine, &sum, 1, coll::ReduceOp::kSum);
  });
  for (int r = 0; r < 5; ++r) {
    if (r == 2) continue;
    EXPECT_NE(codes[static_cast<std::size_t>(r)], ErrorCode::kOk) << "rank " << r;
  }
}

TEST(CollFt, RsagAllreduceRingKillSettlesAllSurvivorsTyped) {
  // The ring touches every rank every step, so a corpse anywhere breaks
  // every survivor's chain within one lap.
  Universe uni(ft_config(4));
  Config check = uni.config();
  ASSERT_TRUE(check.ft_enabled);
  uni.fabric().injector()->kill_rank(3);
  std::vector<ErrorCode> codes(4, ErrorCode::kOk);
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      // Large enough to clear coll_rsag_min_bytes: the ring path.
      std::vector<std::int64_t> in(1024, r), out(1024);
      codes[static_cast<std::size_t>(r)] = coll::allreduce(
          uni.rank(r).world(), in.data(), out.data(), in.size(), coll::ReduceOp::kSum);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < 3; ++r) {
    EXPECT_NE(codes[static_cast<std::size_t>(r)], ErrorCode::kOk) << "rank " << r;
  }
}

TEST(CollFt, RevokeMidCollectiveSettlesTypedAndLaneIsReleased) {
  // Revocation during a collective must surface kCommRevoked on every
  // participant AND release the tag lane on the error path (LaneScope /
  // Ctx cleanup) — a leaked lane would strand later collectives. No
  // heartbeat detector here: the root deliberately stalls past the revoke,
  // and aggressive ft timeouts would declare it dead first (kPeerFailed
  // would mask the code under test).
  Config cfg;
  cfg.num_ranks = 3;
  cfg.op_deadline_ns = 100'000'000;  // no-hang backstop
  Universe uni(cfg);
  const CommId id = uni.create_communicator();
  std::vector<ErrorCode> codes(3, ErrorCode::kOk);
  std::atomic<bool> revoked{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      // The root holds back until the revoke has landed, so ranks 1/2 are
      // parked on posted tree receives when it lands (revoke fails posted
      // requests); the root then enters a revoked communicator and
      // fast-fails. Waiting on the revoke itself, not on a sleep longer
      // than the main thread's, keeps a descheduled main thread from
      // letting the broadcast finish first.
      if (r == 0) {
        while (!revoked.load(std::memory_order_acquire)) std::this_thread::yield();
      }
      std::vector<std::uint32_t> data(64, 5);
      codes[static_cast<std::size_t>(r)] =
          coll::broadcast(uni.rank(r).comm(id), /*root=*/0, data.data(), data.size());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  uni.revoke(id);
  revoked.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (const ErrorCode rc : codes) EXPECT_EQ(rc, ErrorCode::kCommRevoked);
  // Every lane freed: a full complement of handles is acquirable with no
  // blocking (all-lanes-busy would spin in acquire_lane).
  for (int r = 0; r < 3; ++r) {
    Communicator comm = uni.rank(r).comm(id);
    std::vector<coll::CollHandle> handles;
    handles.reserve(static_cast<std::size_t>(coll::kMaxCollLanes));
    for (int i = 0; i < coll::kMaxCollLanes; ++i) handles.emplace_back(comm);
    EXPECT_EQ(handles.back().lane(), coll::kMaxCollLanes - 1);
  }
}

TEST(CollFt, ShrunkCommunicatorRunsCollectivesClean) {
  // Recovery path: after kill -> revoke -> shrink, the survivor
  // communicator must run collectives normally (group-local roots and
  // ring neighbours must not trip over the hole in the global ids).
  // Generous detector timeouts: this test needs NO false positives among
  // the survivors, and the aggressive ft_config timings suspect live
  // ranks to death under sanitizer slowdown (cf. test_ft.cpp's
  // no-false-positives configuration).
  Config cfg = ft_config(4);
  cfg.ft_heartbeat_ns = 1'000'000;
  cfg.ft_suspect_ns = 50'000'000;
  cfg.ft_strikes = 3;
  Universe uni(cfg);
  uni.fabric().injector()->kill_rank(1);
  uni.revoke(kWorldComm);
  const CommId shrunk = uni.shrink(kWorldComm);
  std::vector<std::thread> threads;
  for (const int r : {0, 2, 3}) {
    threads.emplace_back([&, r] {
      Communicator comm = uni.rank(r).comm(shrunk);
      ASSERT_EQ(comm.size(), 3);
      std::int64_t mine = r, sum = 0;
      ASSERT_EQ(coll::allreduce(comm, &mine, &sum, 1, coll::ReduceOp::kSum),
                ErrorCode::kOk);
      ASSERT_EQ(sum, 0 + 2 + 3);
      std::vector<std::uint32_t> big(2048, comm.rank() == 0 ? 77u : 0u);
      ASSERT_EQ(coll::broadcast(comm, /*root=*/0, big.data(), big.size()),
                ErrorCode::kOk);
      for (const auto v : big) ASSERT_EQ(v, 77u);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace fairmpi
