// Ablation: CRI assignment overhead (Alg. 1) and end-to-end send-path
// throughput of the real engine as the instance count grows — the
// microscopic version of Figure 3a's sender-side story.
#include <benchmark/benchmark.h>

#include "fairmpi/core/universe.hpp"
#include "fairmpi/cri/cri.hpp"

namespace {

using fairmpi::Config;
using fairmpi::Request;
using fairmpi::Universe;
using fairmpi::kWorldComm;
using fairmpi::cri::Assignment;
using fairmpi::cri::CriPool;
using fairmpi::fabric::Fabric;

void BM_AssignRoundRobin(benchmark::State& state) {
  Fabric fabric({8});
  CriPool pool(fabric, 0, Assignment::kRoundRobin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.next_round_robin());
  }
}
BENCHMARK(BM_AssignRoundRobin);

void BM_AssignDedicated(benchmark::State& state) {
  Fabric fabric({8});
  CriPool pool(fabric, 0, Assignment::kDedicated);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.dedicated_id());
  }
}
BENCHMARK(BM_AssignDedicated);

/// Zero-byte isend+drain throughput vs instance count and thread count:
/// the sender-side contention story. The receiver rank's progress is
/// driven by the sending thread itself (wait on a drain recv), keeping
/// the loop self-contained.
Universe* g_uni = nullptr;

void send_path_setup(const benchmark::State& state) {
  Config cfg;
  cfg.num_instances = static_cast<int>(state.range(0));
  cfg.assignment = Assignment::kDedicated;
  // Big rings so the bench measures injection, not drain — and concurrent
  // progress so every sender thread's periodic drain is effective (with
  // the serial gate, all senders can end up inside isend backpressure
  // with nobody able to drain the receiver: deadlock).
  // rx_ring_entries is now a PER-LANE (per-source-stream) credit window, so
  // the equivalent headroom needs far fewer entries per ring.
  cfg.fabric.rx_ring_entries = 1 << 15;
  cfg.progress_mode = fairmpi::progress::ProgressMode::kConcurrent;
  g_uni = new Universe(cfg);
}

/// Drain the receiver's rings. Unmatched envelopes land in the unexpected
/// queue and report 0 completions, so drain by call count, not by the
/// progress return value.
void drain_receiver(int calls) {
  for (int i = 0; i < calls; ++i) g_uni->rank(1).progress();
}

void send_path_teardown(const benchmark::State&) {
  drain_receiver(4096);
  delete g_uni;
  g_uni = nullptr;
}

void BM_SendPath(benchmark::State& state) {
  std::uint64_t local_iter = 0;
  for (auto _ : state) {
    Request req;
    g_uni->rank(0).isend(kWorldComm, 1, 1, nullptr, 0, req);
    // Drain the receiver side periodically so rings never back-pressure:
    // 16 concurrent-progress calls x batch 64 far outpace the 128 sends
    // in between, keeping ring occupancy bounded well below capacity.
    if (++local_iter % 128 == 0) drain_receiver(16);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SendPath)
    ->ArgName("instances")
    ->Arg(1)
    ->Arg(4)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    // Fixed iteration count: google-benchmark's auto-calibration re-runs
    // threaded cases many times (each with a full universe setup/teardown),
    // which can take minutes on a small host; 40k sends per thread is more
    // than enough signal.
    ->Iterations(40000)
    ->Setup(send_path_setup)
    ->Teardown(send_path_teardown);

/// Empty-queue Rank::progress() on a 4-CRI concurrent rank: the cost every
/// polling thread pays per call when there is nothing to do — the engine
/// drain plus the service gate, with reliability off (arg 0) or on (arg 1).
void progress_idle_setup(const benchmark::State& state) {
  Config cfg;
  cfg.num_instances = 4;
  cfg.assignment = Assignment::kDedicated;
  cfg.progress_mode = fairmpi::progress::ProgressMode::kConcurrent;
  cfg.reliable = state.range(0) != 0;
  g_uni = new Universe(cfg);
}

void progress_idle_teardown(const benchmark::State&) {
  delete g_uni;
  g_uni = nullptr;
}

void BM_ProgressIdle(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(g_uni->rank(0).progress());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProgressIdle)
    ->ArgName("reliable")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->Iterations(200000)  // fixed, as for BM_SendPath: one universe per run
    ->Setup(progress_idle_setup)
    ->Teardown(progress_idle_teardown);

}  // namespace
