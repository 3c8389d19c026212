// perfbench_driver — one workload of the end-to-end benchmark over the real
// fairmpi engine, driven through the public API only (Universe / Rank
// isend-irecv-progress for Multirate-pairwise, rma::WindowGroup / Window
// put-flush for RMA-MT). Every layer is timed from outside, around the call
// the driver makes into it; engine counters come from SPC snapshot deltas
// and, in the traced mode, Universe::dump_observability().
//
//   perfbench_driver --workload mr-comm --seed 7 --reps 4 --rep-seconds 2
//                    [--setup-reps 8] [--traced --spans-out spans.csv]
//
// Prints one JSON object on stdout. Exit status: 0 ok, 2 bad arguments,
// 3 verification or binding failure.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/rng.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/common/topology.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/rma/window.hpp"

namespace {

using fairmpi::now_ns;
using fairmpi::Rank;
using fairmpi::Request;
using fairmpi::Universe;
using fairmpi::spc::Counter;

constexpr int kWorkers = 4;
constexpr int kPairs = 2;
constexpr int kWindow = 128;       // Multirate receive window
constexpr int kCredit = 2;         // windows a sender may run ahead of its acks
constexpr int kPutsPerFlush = 256;  // RMA-MT round
constexpr std::size_t kSlotBytes = 64;  // one cache line per RMA-MT thread slot
constexpr double kWarmupSeconds = 0.15;  // windows cycle before each timed region
constexpr std::uint64_t kSampleGapNs = 20'000'000;  // traced: one sampled round per 20 ms

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  bool rma;
  bool comm_per_pair;
  bool reliable;
  std::size_t payload;
};

constexpr std::array<Workload, 4> kWorkloads{{
    {"mr-shared", false, false, false, 0},
    {"mr-comm", false, true, false, 0},
    {"mr-reliable", false, true, true, 4096},
    {"rma-put", true, false, false, 8},
}};

struct Args {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  int reps = 4;
  double rep_seconds = 2.0;
  int setup_reps = 8;
  bool traced = false;
  std::string spans_out;
};

// ------------------------------------------------------------------- spans

enum SpanName : std::uint8_t { kRound, kIsend, kIrecv, kProgress, kPut, kFlush, kNumNames };
constexpr std::array<const char*, kNumNames> kSpanNames{"round", "isend", "irecv",
                                                        "progress", "put", "flush"};

struct Span {
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  SpanName name;
};

/// Per-worker recording state, owned by main and reused across repetitions.
/// Every run samples round times; traced runs also sample whole rounds (the
/// first to start at least kSampleGapNs after the previous sampled one, so
/// samples spread over the whole run at any round rate) into `spans`, kept
/// in memory until the run ends.
struct alignas(64) Recorder {
  static constexpr std::size_t kSpanCap = 1 << 17;
  static constexpr std::size_t kRoundReserve = 8192;  // max spans one round may add
  static constexpr std::size_t kReservoir = 1 << 16;

  int worker = 0;
  bool traced = false;

  // Uniform sample (Algorithm R) of the durations of rounds wholly inside a
  // timed region: exact values in memory that does not grow with the rate.
  std::vector<std::uint32_t> round_ns = std::vector<std::uint32_t>(kReservoir);
  std::uint64_t rounds_timed = 0;
  fairmpi::Xoshiro256 pick;

  std::vector<Span> spans;
  std::uint64_t next_sample_ns = 0;
  std::uint64_t next_id = 1;
  bool sampling = false;
  std::size_t round_index = 0;

  std::uint64_t progress_calls = 0;
  std::uint64_t progress_empty = 0;
  std::uint64_t wait_ns = 0;          // wait-loop time in sampled rounds
  std::uint64_t sampled_round_ns = 0;  // duration of sampled rounds

  void add_round_time(std::uint64_t ns) {
    const auto v = static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, ~0u));
    const std::uint64_t i = rounds_timed++;
    if (i < kReservoir) {
      round_ns[i] = v;
    } else if (const std::uint64_t j = pick.bounded(i + 1); j < kReservoir) {
      round_ns[j] = v;
    }
  }

  std::uint64_t make_id() { return (static_cast<std::uint64_t>(worker + 1) << 48) | next_id++; }

  void begin_round(std::uint64_t t0) {
    sampling = traced && t0 >= next_sample_ns && spans.size() + kRoundReserve <= kSpanCap;
    if (!sampling) return;
    next_sample_ns = t0 + kSampleGapNs;
    round_index = spans.size();
    spans.push_back({make_id(), 0, t0, t0, kRound});
  }
  void end_round(std::uint64_t t1) {
    if (!sampling) return;
    Span& r = spans[round_index];
    r.end_ns = t1;
    sampled_round_ns += t1 - r.start_ns;
    sampling = false;
  }
  void child(SpanName name, std::uint64_t t0, std::uint64_t t1) {
    if (spans.size() >= kSpanCap) {  // round outgrew its reserve: drop it whole
      spans.resize(round_index);
      sampling = false;
      return;
    }
    spans.push_back({make_id(), spans[round_index].id, t0, t1, name});
  }
};

/// Run `op` as a child span of the current round when the round is sampled.
template <typename Op>
void timed(Recorder& rec, SpanName name, Op&& op) {
  if (!rec.sampling) {
    op();
    return;
  }
  const std::uint64_t t0 = now_ns();
  op();
  rec.child(name, t0, now_ns());
}

/// One Rank::progress() call as the driver's wait loops make it.
std::size_t progress_once(Rank& rank, Recorder& rec) {
  if (!rec.traced) return rank.progress();
  std::size_t got = 0;
  timed(rec, kProgress, [&] { got = rank.progress(); });
  ++rec.progress_calls;
  if (got == 0) ++rec.progress_empty;
  return got;
}

/// Spin until `done()` holds, progressing `rank` with the same SpinWait
/// policy as Rank::wait_all. `give_up()` lets a sender leave once every
/// receiver has stopped.
template <typename Done, typename GiveUp>
void wait_loop(Rank& rank, Recorder& rec, Done done, GiveUp give_up) {
  const std::uint64_t w0 = rec.sampling ? now_ns() : 0;
  fairmpi::SpinWait waiter;
  while (!done() && !give_up()) {
    if (progress_once(rank, rec) == 0) waiter.pause(); else waiter.reset();
  }
  if (rec.sampling) rec.wait_ns += now_ns() - w0;
}

// -------------------------------------------------------------- rep result

struct Outcome {
  std::mutex mu;
  std::string error;  // first verification/binding failure
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::array<std::atomic<std::uint64_t>, 32> sink_codes{};  // by ErrorCode

  void fail(const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    if (error.empty()) error = what;
  }
  bool ok() {
    std::lock_guard<std::mutex> g(mu);
    return error.empty();
  }
};

void count_sink_error(const fairmpi::common::Error& err, void* user) {
  Outcome& out = *static_cast<Outcome*>(user);
  out.sink_codes[static_cast<std::size_t>(err.code) % out.sink_codes.size()].fetch_add(
      1, std::memory_order_relaxed);
}

struct RepResult {
  double setup_s = 0;
  double elapsed_s = 0;
  std::uint64_t ops = 0;  // verified messages received / puts covered by a flush
  std::array<int, kWorkers> binding{};
  fairmpi::spc::Snapshot counters;  // delta over the timed region
  std::string obs_before, obs_after;
};

/// Shared control block of one repetition.
struct Control {
  explicit Control(int parties) : sync(parties) {}
  std::barrier<> sync;
  std::atomic<int> bind_turn{0};
  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  std::atomic<int> receivers_done{0};
  std::atomic<int> senders_done{0};
  std::atomic<std::uint64_t> ops{0};
};

/// Fixed-order first engine call: worker k binds (claims its CRI) only after
/// workers 0..k-1 have, so the dedicated claim scan hands out instances in
/// the same order on every run.
int bind_in_turn(Control& ctl, int k, fairmpi::cri::CriPool& pool) {
  while (ctl.bind_turn.load(std::memory_order_acquire) != k) std::this_thread::yield();
  const int id = pool.id_for_thread();
  ctl.bind_turn.store(k + 1, std::memory_order_release);
  return id;
}

std::string dump_obs(const Universe& uni) {
  std::ostringstream os;
  uni.dump_observability(os);
  return os.str();
}

/// Main-thread half of a measured repetition once the workers are released:
/// warm up, then open the timed region for rep_seconds and take the counter
/// (and, traced, observability) deltas around it.
void time_region(const Args& a, Universe& uni, Control& ctl, RepResult& res) {
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  if (a.traced) res.obs_before = dump_obs(uni);
  const fairmpi::spc::Snapshot before = uni.aggregate_counters();
  const std::uint64_t t0 = now_ns();
  ctl.timing.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(a.rep_seconds));
  ctl.timing.store(false, std::memory_order_release);
  const std::uint64_t t1 = now_ns();
  res.counters = uni.aggregate_counters().delta_since(before);
  if (a.traced) res.obs_after = dump_obs(uni);
  res.elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
}

fairmpi::Config engine_config(const Args& a) {
  fairmpi::Config cfg;
  cfg.num_ranks = 2;
  cfg.num_instances = a.wl->rma ? kWorkers : kPairs;
  cfg.assignment = fairmpi::cri::Assignment::kDedicated;
  cfg.progress_mode = fairmpi::progress::ProgressMode::kConcurrent;
  cfg.reliable = a.wl->reliable;
  cfg.obs_enabled = a.traced;
  return cfg;
}

// ------------------------------------------------------ Multirate-pairwise

/// Seeded inputs of one Multirate repetition.
struct PairInputs {
  int tag = 0;
  int ack_tag = 0;
  fairmpi::CommId comm = fairmpi::kWorldComm;
  std::vector<std::uint8_t> pattern;  // payload body, fixed per pair
};

constexpr std::size_t kSeqBytes = sizeof(std::uint64_t);

/// Check one completed receive; returns false (after recording why) on a
/// mismatch. Reliable-mode payloads carry a per-pair sequence number in
/// their first 8 bytes followed by the pair's seeded pattern.
bool verify_recv(const Request& r, int src, int tag, const PairInputs& pin, std::size_t n,
                 const std::uint8_t* buf, std::uint64_t* expect_seq, Outcome& out) {
  const fairmpi::Status& st = r.status();
  if (st.source != src || st.tag != tag || st.size != n || st.truncated) {
    out.fail("receive envelope mismatch: source " + std::to_string(st.source) + " tag " +
             std::to_string(st.tag) + " size " + std::to_string(st.size) + ", expected " +
             std::to_string(src) + "/" + std::to_string(tag) + "/" + std::to_string(n));
    return false;
  }
  if (expect_seq == nullptr) return true;
  std::uint64_t seq = 0;
  std::memcpy(&seq, buf, kSeqBytes);
  if (seq != *expect_seq) {
    out.fail("payload sequence " + std::to_string(seq) + ", expected " +
             std::to_string(*expect_seq) + " (lost, duplicated or reordered delivery)");
    return false;
  }
  ++*expect_seq;
  if (std::memcmp(buf + kSeqBytes, pin.pattern.data() + kSeqBytes, n - kSeqBytes) != 0) {
    out.fail("payload bytes differ from the seeded pattern");
    return false;
  }
  return true;
}

RepResult run_multirate(const Args& a, bool measure, std::array<Recorder, kWorkers>& recs,
                        Outcome& out) {
  const Workload& wl = *a.wl;
  const std::size_t n = wl.payload;
  RepResult res;

  // Seeded inputs: tag bases and payload patterns.
  fairmpi::Xoshiro256 rng(a.seed);
  const int tag_base = static_cast<int>(rng.bounded(1 << 16)) * 4;
  std::array<PairInputs, kPairs> pins;
  for (int p = 0; p < kPairs; ++p) {
    PairInputs& pin = pins[static_cast<std::size_t>(p)];
    pin.tag = tag_base + p;
    pin.ack_tag = (1 << 20) + tag_base + p;
    pin.pattern.resize(std::max<std::size_t>(n, kSeqBytes));
    for (auto& b : pin.pattern) b = static_cast<std::uint8_t>(rng());
  }

  // Requests that may still sit in a posted queue when the workers leave
  // (a sender's unanswered acks) outlive the universe.
  std::array<std::array<Request, kCredit + 1>, kPairs> ack_rings;

  const std::uint64_t t_setup = now_ns();
  auto uni = std::make_unique<Universe>(engine_config(a));
  for (int r = 0; r < 2; ++r) uni->rank(r).set_error_sink(count_sink_error, &out);
  for (auto& pin : pins) {
    if (wl.comm_per_pair) pin.comm = uni->create_communicator();
  }
  Rank& snd_rank = uni->rank(0);
  Rank& rcv_rank = uni->rank(1);
  Control ctl(kWorkers + 1);

  auto sender = [&](int p) {
    const PairInputs& pin = pins[static_cast<std::size_t>(p)];
    Recorder& rec = recs[static_cast<std::size_t>(p)];
    res.binding[static_cast<std::size_t>(p)] = bind_in_turn(ctl, p, snd_rank.pool());
    std::vector<std::uint8_t> payload = pin.pattern;
    auto& acks = ack_rings[static_cast<std::size_t>(p)];
    ctl.sync.arrive_and_wait();

    Request sreq;
    std::uint64_t seq = 0, posted = 0, next_wait = 0, attempted = 0, failed = 0;
    auto all_done = [&] {
      return ctl.receivers_done.load(std::memory_order_acquire) >= kPairs;
    };
    while (!all_done()) {
      rec.begin_round(rec.traced ? now_ns() : 0);
      for (int i = 0; i < kWindow && !all_done(); ++i) {
        if (wl.reliable) std::memcpy(payload.data(), &seq, kSeqBytes);
        ++seq;
        timed(rec, kIsend, [&] { snd_rank.isend(pin.comm, 1, pin.tag, payload.data(), n, sreq); });
        ++attempted;
        if (sreq.failed()) ++failed;
      }
      Request& ack = acks[posted % acks.size()];
      timed(rec, kIrecv, [&] { snd_rank.irecv(pin.comm, 1, pin.ack_tag, nullptr, 0, ack); });
      ++posted;
      if (posted - next_wait >= kCredit) {
        Request& oldest = acks[next_wait % acks.size()];
        wait_loop(snd_rank, rec, [&] { return oldest.done(); }, all_done);
        if (oldest.done()) {
          ++attempted;
          if (oldest.failed()) ++failed;
          else verify_recv(oldest, 1, pin.ack_tag, pin, 0, nullptr, nullptr, out);
        }
        ++next_wait;
      }
      rec.end_round(rec.traced ? now_ns() : 0);
    }
    out.attempted.fetch_add(attempted, std::memory_order_relaxed);
    out.failed.fetch_add(failed, std::memory_order_relaxed);
    ctl.senders_done.fetch_add(1, std::memory_order_release);
  };

  auto receiver = [&](int p) {
    const PairInputs& pin = pins[static_cast<std::size_t>(p)];
    Recorder& rec = recs[static_cast<std::size_t>(kPairs + p)];
    res.binding[static_cast<std::size_t>(kPairs + p)] =
        bind_in_turn(ctl, kPairs + p, rcv_rank.pool());
    std::vector<Request> reqs(kWindow);
    const std::size_t stride = std::max<std::size_t>(n, 1);
    std::vector<std::uint8_t> buf(stride * kWindow);
    ctl.sync.arrive_and_wait();

    Request ack;
    std::uint64_t expect_seq = 0, delivered = 0, attempted = 0, failed = 0;
    while (!ctl.stop.load(std::memory_order_acquire)) {
      const bool timed_start = ctl.timing.load(std::memory_order_acquire);
      const std::uint64_t t0 = now_ns();
      rec.begin_round(t0);
      for (int i = 0; i < kWindow; ++i) {
        timed(rec, kIrecv, [&] {
          rcv_rank.irecv(pin.comm, 0, pin.tag, buf.data() + stride * static_cast<std::size_t>(i),
                         n, reqs[static_cast<std::size_t>(i)]);
        });
      }
      std::size_t next = 0;
      wait_loop(
          rcv_rank, rec,
          [&] {
            while (next < reqs.size() && reqs[next].done()) ++next;
            return next == reqs.size();
          },
          [] { return false; });
      const std::uint64_t t1 = now_ns();
      timed(rec, kIsend, [&] { rcv_rank.isend(pin.comm, 0, pin.ack_tag, nullptr, 0, ack); });
      rec.end_round(rec.traced ? now_ns() : 0);

      std::uint64_t good = 0;
      for (int i = 0; i < kWindow; ++i) {
        const Request& r = reqs[static_cast<std::size_t>(i)];
        if (r.failed()) {
          ++failed;
          continue;
        }
        if (verify_recv(r, 0, pin.tag, pin, n, buf.data() + stride * static_cast<std::size_t>(i),
                        wl.reliable ? &expect_seq : nullptr, out)) {
          ++good;
        }
      }
      attempted += kWindow + 1;
      if (ack.failed()) ++failed;
      if (timed_start && ctl.timing.load(std::memory_order_acquire)) {
        delivered += good;
        rec.add_round_time(t1 - t0);
      }
    }
    ctl.ops.fetch_add(delivered, std::memory_order_relaxed);
    out.attempted.fetch_add(attempted, std::memory_order_relaxed);
    out.failed.fetch_add(failed, std::memory_order_relaxed);
    ctl.receivers_done.fetch_add(1, std::memory_order_release);
    // Keep the receiving rank progressing until both senders have left: a
    // sender may sit inside isend waiting for reliability acks, which only
    // this rank's progress produces.
    fairmpi::SpinWait waiter;
    while (ctl.senders_done.load(std::memory_order_acquire) < kPairs) {
      if (rcv_rank.progress() == 0) waiter.pause(); else waiter.reset();
    }
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) threads.emplace_back(sender, p);
  for (int p = 0; p < kPairs; ++p) threads.emplace_back(receiver, p);
  if (!measure) ctl.stop.store(true, std::memory_order_release);
  ctl.sync.arrive_and_wait();
  res.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  if (measure) time_region(a, *uni, ctl, res);
  ctl.stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  res.ops = ctl.ops.load();

  for (int p = 0; p < kPairs; ++p) {
    const int s = res.binding[static_cast<std::size_t>(p)];
    const int r = res.binding[static_cast<std::size_t>(kPairs + p)];
    if (s != p || r != p) {
      out.fail("binding check: pair " + std::to_string(p) + " sender on CRI " +
               std::to_string(s) + ", receiver on CRI " + std::to_string(r) +
               ", expected both on CRI " + std::to_string(p));
    }
  }
  uni.reset();
  return res;
}

// -------------------------------------------------------------- RMA-MT put

RepResult run_rma(const Args& a, bool measure, std::array<Recorder, kWorkers>& recs,
                  Outcome& out) {
  RepResult res;
  struct alignas(kSlotBytes) Slot {
    std::uint64_t value;
  };
  static_assert(sizeof(Slot) == kSlotBytes);

  // Seeded inputs: each thread's 256 per-put values; round r writes
  // value[i] ^ r, so after a flush the slot must hold value[255] ^ r.
  fairmpi::Xoshiro256 rng(a.seed);
  std::array<std::array<std::uint64_t, kPutsPerFlush>, kWorkers> values{};
  for (auto& row : values) {
    for (auto& v : row) v = rng();
  }
  std::vector<Slot> target(kWorkers, Slot{0});
  std::array<std::uint64_t, kWorkers> last_written{};  // slots start at 0 too
  std::vector<std::byte> initiator(1);

  const std::uint64_t t_setup = now_ns();
  auto uni = std::make_unique<Universe>(engine_config(a));
  for (int r = 0; r < 2; ++r) uni->rank(r).set_error_sink(count_sink_error, &out);
  auto group = std::make_unique<fairmpi::rma::WindowGroup>(
      *uni, std::vector<fairmpi::rma::WindowGroup::Region>{
                {initiator.data(), initiator.size()},
                {target.data(), target.size() * sizeof(Slot)}});
  fairmpi::rma::Window& win = group->window(0);
  Control ctl(kWorkers + 1);

  auto worker = [&](int t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    Recorder& rec = recs[ti];
    res.binding[ti] = bind_in_turn(ctl, t, uni->rank(0).pool());
    const auto& vals = values[ti];
    const std::size_t disp = ti * sizeof(Slot);
    const volatile std::uint64_t* slot = &target[ti].value;
    ctl.sync.arrive_and_wait();

    std::uint64_t round = 0, ops = 0;
    while (!ctl.stop.load(std::memory_order_acquire)) {
      const bool timed_start = ctl.timing.load(std::memory_order_acquire);
      const std::uint64_t t0 = now_ns();
      rec.begin_round(t0);
      for (int i = 0; i < kPutsPerFlush; ++i) {
        const std::uint64_t v = vals[static_cast<std::size_t>(i)] ^ round;
        timed(rec, kPut, [&] { win.put(1, disp, &v, sizeof v); });
      }
      timed(rec, kFlush, [&] { win.flush(1); });
      const std::uint64_t t1 = now_ns();
      rec.end_round(t1);
      const std::uint64_t expect = vals[kPutsPerFlush - 1] ^ round;
      if (*slot != expect) {
        out.fail("rma slot " + std::to_string(t) + " holds a value other than the last put");
        break;
      }
      if (timed_start && ctl.timing.load(std::memory_order_acquire)) {
        ops += kPutsPerFlush;
        rec.add_round_time(t1 - t0);
      }
      last_written[ti] = expect;
      ++round;
    }
    ctl.ops.fetch_add(ops, std::memory_order_relaxed);
    out.attempted.fetch_add(round * kPutsPerFlush, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) threads.emplace_back(worker, t);
  if (!measure) ctl.stop.store(true, std::memory_order_release);
  ctl.sync.arrive_and_wait();
  res.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  if (measure) time_region(a, *uni, ctl, res);
  ctl.stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  res.ops = ctl.ops.load();

  // After the final flush every slot holds its thread's last seeded value.
  for (int t = 0; t < kWorkers; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (target[ti].value != last_written[ti]) {
      out.fail("rma slot " + std::to_string(t) + " lost its final put");
    }
  }
  std::array<int, kWorkers> sorted = res.binding;
  std::sort(sorted.begin(), sorted.end());
  for (int t = 0; t < kWorkers; ++t) {
    if (sorted[static_cast<std::size_t>(t)] != t) {
      out.fail("binding check: rma threads do not each own a distinct CRI");
      break;
    }
  }
  group.reset();
  uni.reset();
  return res;
}

// ------------------------------------------------------------------ report

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
template <typename T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

/// Self time per span name (duration minus what its children cover; a
/// round's children run sequentially on its thread) plus per-name duration
/// percentiles. Writes every span to `path` when non-empty.
std::string span_report(std::array<Recorder, kWorkers>& recs, const std::string& path) {
  std::array<std::vector<std::uint64_t>, kNumNames> dur;
  std::array<double, kNumNames> self{};
  std::ofstream os;
  if (!path.empty()) {
    os.open(path);
    os << "thread,id,parent,name,start_ns,end_ns\n";
  }
  for (Recorder& rec : recs) {
    std::size_t round = 0;
    std::uint64_t covered = 0;
    auto close_round = [&] {
      if (round == 0) return;
      const Span& r = rec.spans[round - 1];
      self[kRound] += static_cast<double>(r.end_ns - r.start_ns - covered);
    };
    for (std::size_t i = 0; i < rec.spans.size(); ++i) {
      const Span& s = rec.spans[i];
      const std::uint64_t d = s.end_ns - s.start_ns;
      dur[s.name].push_back(d);
      if (s.name == kRound) {
        close_round();
        round = i + 1;
        covered = 0;
      } else {
        self[s.name] += static_cast<double>(d);
        covered += d;
      }
      if (os.is_open()) {
        os << rec.worker << ',' << s.id << ',' << s.parent << ',' << kSpanNames[s.name] << ','
           << s.start_ns << ',' << s.end_ns << '\n';
      }
    }
    close_round();
  }
  std::string out = "{";
  char buf[256];
  for (int k = 0; k < kNumNames; ++k) {
    auto& d = dur[static_cast<std::size_t>(k)];
    const double count = static_cast<double>(d.size());
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"count\": %.0f, \"self_ns_mean\": %.6g, \"p50_ns\": %.6g, "
                  "\"p99_ns\": %.6g}",
                  k ? ", " : "", kSpanNames[static_cast<std::size_t>(k)], count,
                  count > 0 ? self[static_cast<std::size_t>(k)] / count : 0.0,
                  percentile(d, 0.50), percentile(d, 0.99));
    out += buf;
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--traced") {
      a.traced = true;
    } else if ((v = val()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a.wl = &w;
      }
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--reps") {
      a.reps = std::atoi(v);
    } else if (k == "--rep-seconds") {
      a.rep_seconds = std::atof(v);
    } else if (k == "--setup-reps") {
      a.setup_reps = std::atoi(v);
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return a.wl != nullptr && a.reps >= 1 && a.setup_reps >= 0 && a.rep_seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload mr-shared|mr-comm|mr-reliable|rma-put "
                 "--seed N [--reps N] [--rep-seconds S] [--setup-reps N] [--traced] "
                 "[--spans-out FILE]\n");
    return 2;
  }

  std::array<Recorder, kWorkers> recs;
  for (int k = 0; k < kWorkers; ++k) {
    Recorder& rec = recs[static_cast<std::size_t>(k)];
    rec.worker = k;
    rec.traced = a.traced;
    if (a.traced) rec.spans.reserve(Recorder::kSpanCap);
  }
  Outcome out;
  auto run = a.wl->rma ? run_rma : run_multirate;

  std::vector<double> setup_s, rates;
  std::vector<RepResult> measured;
  for (int i = 0; i < a.setup_reps && out.ok(); ++i) setup_s.push_back(run(a, false, recs, out).setup_s);
  for (int i = 0; i < a.reps && out.ok(); ++i) {
    measured.push_back(run(a, true, recs, out));
    setup_s.push_back(measured.back().setup_s);
    rates.push_back(static_cast<double>(measured.back().ops) / measured.back().elapsed_s);
  }

  std::vector<std::uint32_t> rounds;
  std::uint64_t rounds_timed = 0;
  for (const Recorder& rec : recs) {
    const auto kept = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(rec.rounds_timed, Recorder::kReservoir));
    rounds.insert(rounds.end(), rec.round_ns.begin(), rec.round_ns.begin() + kept);
    rounds_timed += rec.rounds_timed;
  }
  fairmpi::spc::Snapshot counters;
  double elapsed = 0;
  for (const RepResult& r : measured) {
    counters.merge(r.counters);
    elapsed += r.elapsed_s;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  const bool ok = out.ok() && !measured.empty();
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"ok\": %s, \"error\": \"%s\",\n",
              a.wl->name, static_cast<unsigned long long>(a.seed), a.traced ? "true" : "false",
              ok ? "true" : "false", json_escape(out.error).c_str());
  std::printf(" \"compiler\": \"%s %s\", \"build_type\": \"%s\", \"topology_domains\": %d,\n",
              PERFBENCH_CXX_ID, PERFBENCH_CXX_VERSION, PERFBENCH_BUILD_TYPE,
              fairmpi::common::cpu_topology().num_domains);
  std::printf(" \"binding\": [");
  for (int k = 0; k < kWorkers; ++k) {
    std::printf("%s%d", k ? ", " : "", measured.empty() ? -1 : measured[0].binding[static_cast<std::size_t>(k)]);
  }
  std::printf("],\n");
  std::printf(" \"setup_s\": %s, \"msg_rate\": %s, \"elapsed_s\": %.9g,\n",
              json_list(setup_s).c_str(), json_list(rates).c_str(), elapsed);
  const double p50 = percentile(rounds, 0.50), p99 = percentile(rounds, 0.99);
  std::printf(" \"round_samples\": %llu, \"round_p50_ns\": %.9g, \"round_p99_ns\": %.9g,\n",
              static_cast<unsigned long long>(rounds_timed), p50, p99);
  std::uint64_t sink_errors = 0;
  std::string codes;
  for (std::size_t c = 0; c < out.sink_codes.size(); ++c) {
    if (const std::uint64_t k = out.sink_codes[c].load()) {
      sink_errors += k;
      codes += (codes.empty() ? "\"" : ", \"") +
               std::string(fairmpi::common::error_code_name(
                   static_cast<fairmpi::common::ErrorCode>(c))) +
               "\": " + std::to_string(k);
    }
  }
  std::printf(" \"attempted\": %llu, \"failed\": %llu, \"sink_errors\": %llu, \"peak_rss_kib\": %ld,\n",
              static_cast<unsigned long long>(out.attempted.load()),
              static_cast<unsigned long long>(out.failed.load()),
              static_cast<unsigned long long>(sink_errors), ru.ru_maxrss);
  std::printf(" \"sink_codes\": {%s},\n \"counters\": {", codes.c_str());
  for (int c = 0; c < fairmpi::spc::kNumCounters; ++c) {
    std::printf("%s\"%s\": %llu", c ? ", " : "",
                fairmpi::spc::counter_name(static_cast<Counter>(c)),
                static_cast<unsigned long long>(counters.get(static_cast<Counter>(c))));
  }
  std::printf("}");
  if (a.traced) {
    std::uint64_t calls = 0, empty = 0, wait = 0, sampled = 0;
    for (const Recorder& rec : recs) {
      calls += rec.progress_calls;
      empty += rec.progress_empty;
      wait += rec.wait_ns;
      sampled += rec.sampled_round_ns;
    }
    std::printf(",\n \"progress_calls\": %llu, \"progress_empty\": %llu, \"wait_ns\": %llu, "
                "\"sampled_round_ns\": %llu, \"thread_seconds\": %.9g,\n",
                static_cast<unsigned long long>(calls), static_cast<unsigned long long>(empty),
                static_cast<unsigned long long>(wait), static_cast<unsigned long long>(sampled),
                elapsed * kWorkers);
    std::printf(" \"spans\": %s,\n", span_report(recs, a.spans_out).c_str());
    std::printf(" \"obs\": [");
    for (std::size_t i = 0; i < measured.size(); ++i) {
      std::printf("%s{\"before\": %s, \"after\": %s}", i ? ", " : "",
                  measured[i].obs_before.c_str(), measured[i].obs_after.c_str());
    }
    std::printf("]");
  }
  std::printf("}\n");
  return ok ? 0 : 3;
}
