// Host-scale runs of the real-backend benchmarks: small configurations,
// short durations — these validate plumbing (no hangs, sane rates, SPC
// deltas), not paper-scale performance shapes.
#include "fairmpi/multirate/multirate.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "fairmpi/rmamt/rmamt.hpp"

namespace fairmpi {
namespace {

using multirate::MultirateConfig;
using multirate::run_pairwise;
using spc::Counter;

/// True when the chaos CI profile injects faults via the environment: the
/// "no out-of-sequence arrivals" assertions below describe a pristine
/// fabric and are legitimately violated by injected reordering (delivery
/// counts — the exactly-once property — still must hold).
bool chaos_env() {
  for (const char* v : {"FAIRMPI_FAULT_DROP", "FAIRMPI_FAULT_DUP",
                        "FAIRMPI_FAULT_DELAY", "FAIRMPI_FAULT_REORDER",
                        "FAIRMPI_FAULT_CORRUPT"}) {
    if (std::getenv(v) != nullptr) return true;
  }
  return false;
}

MultirateConfig quick(int pairs) {
  MultirateConfig cfg;
  cfg.pairs = pairs;
  cfg.duration_s = 0.08;
  cfg.window = 32;
  return cfg;
}

TEST(Multirate, SinglePairDeliversAtPlausibleRate) {
  const auto res = run_pairwise(quick(1));
  EXPECT_GT(res.delivered, 100u);
  EXPECT_GT(res.msg_rate, 1e4);
  if (!chaos_env()) {
    EXPECT_EQ(res.receiver_spc.get(Counter::kOutOfSequence), 0u);  // one sender
  }
}

TEST(Multirate, TwoPairsSharedCommCompletes) {
  MultirateConfig cfg = quick(2);
  cfg.engine.num_instances = 2;
  cfg.engine.assignment = cri::Assignment::kRoundRobin;
  const auto res = run_pairwise(cfg);
  EXPECT_GT(res.delivered, 200u);
  // Receiver-side SPC saw the traffic. A receiver preempted between its
  // window's wait_all and the timing check counts that window although its
  // messages landed before the SPC baseline: at most one window per pair.
  EXPECT_GE(res.receiver_spc.get(Counter::kMessagesReceived) + cfg.window * cfg.pairs,
            res.delivered);
}

TEST(Multirate, CommPerPairMode) {
  MultirateConfig cfg = quick(2);
  cfg.comm_per_pair = true;
  cfg.engine.progress_mode = progress::ProgressMode::kConcurrent;
  cfg.engine.num_instances = 2;
  const auto res = run_pairwise(cfg);
  EXPECT_GT(res.delivered, 200u);
}

TEST(Multirate, AnyTagAndOvertaking) {
  MultirateConfig cfg = quick(2);
  cfg.any_tag = true;
  cfg.comm_per_pair = true;  // ANY_TAG needs per-pair streams to stay sane
  cfg.engine.allow_overtaking = true;
  const auto res = run_pairwise(cfg);
  EXPECT_GT(res.delivered, 200u);
  if (!chaos_env()) {
    EXPECT_EQ(res.receiver_spc.get(Counter::kOutOfSequence), 0u);
  }
}

TEST(Multirate, ProcessMode) {
  MultirateConfig cfg = quick(2);
  cfg.process_mode = true;
  const auto res = run_pairwise(cfg);
  EXPECT_GT(res.delivered, 200u);
  if (!chaos_env()) {
    EXPECT_EQ(res.receiver_spc.get(Counter::kOutOfSequence), 0u);  // private streams
  }
}

TEST(Multirate, PayloadBytesFlow) {
  MultirateConfig cfg = quick(1);
  cfg.payload_bytes = 1024;
  const auto res = run_pairwise(cfg);
  EXPECT_GT(res.delivered, 50u);
  EXPECT_GE(res.receiver_spc.get(Counter::kBytesReceived), res.delivered * 1024);
}

TEST(MultirateIncast, SingleSenderDelivers) {
  MultirateConfig cfg = quick(1);
  const auto res = multirate::run_incast(cfg);
  EXPECT_GT(res.delivered, 100u);
  if (!chaos_env()) {
    EXPECT_EQ(res.receiver_spc.get(Counter::kOutOfSequence), 0u);  // one stream
  }
}

TEST(MultirateIncast, ManySendersShareOneStream) {
  MultirateConfig cfg = quick(3);
  cfg.engine.num_instances = 2;
  cfg.engine.assignment = cri::Assignment::kRoundRobin;
  const auto res = multirate::run_incast(cfg);
  EXPECT_GT(res.delivered, 100u);
  // Three senders racing on one sequence stream: out-of-sequence arrivals
  // are near-certain (the §II-C worst case the pattern exists to show).
  EXPECT_GT(res.receiver_spc.get(Counter::kOutOfSequence), 0u);
}

TEST(MultirateIncast, OvertakingRemovesTheStreamPenalty) {
  MultirateConfig cfg = quick(3);
  cfg.engine.num_instances = 2;
  cfg.engine.allow_overtaking = true;
  const auto res = multirate::run_incast(cfg);
  EXPECT_GT(res.delivered, 100u);
  if (!chaos_env()) {
    EXPECT_EQ(res.receiver_spc.get(Counter::kOutOfSequence), 0u);
  }
}

TEST(Rmamt, SingleThreadPuts) {
  rmamt::RmamtConfig cfg;
  cfg.threads = 1;
  cfg.duration_s = 0.08;
  cfg.ops_per_round = 100;
  const auto res = rmamt::run_put_flush(cfg);
  EXPECT_GT(res.ops, 100u);
  EXPECT_GT(res.msg_rate, 1e4);
}

TEST(Rmamt, MultiThreadDedicatedInstances) {
  rmamt::RmamtConfig cfg;
  cfg.threads = 4;
  cfg.engine.num_instances = 4;
  cfg.engine.assignment = cri::Assignment::kDedicated;
  cfg.duration_s = 0.08;
  cfg.ops_per_round = 100;
  cfg.message_size = 64;
  const auto res = rmamt::run_put_flush(cfg);
  EXPECT_GT(res.ops, 400u);
}

TEST(Rmamt, RoundRobinSharedInstance) {
  rmamt::RmamtConfig cfg;
  cfg.threads = 4;
  cfg.engine.num_instances = 2;
  cfg.engine.assignment = cri::Assignment::kRoundRobin;
  cfg.duration_s = 0.08;
  cfg.ops_per_round = 50;
  const auto res = rmamt::run_put_flush(cfg);
  EXPECT_GT(res.ops, 200u);
}

}  // namespace
}  // namespace fairmpi
