#include "fairmpi/multirate/multirate.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/contention.hpp"

namespace fairmpi::multirate {

namespace {

struct PairEndpoints {
  Rank* sender = nullptr;
  Rank* receiver = nullptr;
  int sender_rank_id = 0;  ///< rank id the receiver matches against
  CommId comm = kWorldComm;
  int tag = 0;
};

/// Pin `lock` from a holder thread while `blocked_op` runs on this thread,
/// until the contention profiler has attributed wait time to `cls_name` (or
/// attempts run out — the obs_report.py gate reports the failure). Retries
/// absorb the one unlucky schedule where this thread is descheduled past
/// the whole hold window.
template <typename LockT, typename Op>
void contend_until_attributed(LockT& lock, const char* cls_name, Op blocked_op) {
  for (int attempt = 1; attempt <= 50; ++attempt) {
    std::atomic<bool> held{false};
    std::atomic<bool> entering{false};
    std::thread holder([&] {
      LockGuard pin(lock);
      held.store(true, std::memory_order_release);
      // Start the hold window only once this thread is about to probe the
      // lock, and escalate it per attempt: on a busy 1-core CI machine a
      // concurrent test process can deschedule us for longer than any
      // fixed window between announcing and actually probing.
      while (!entering.load(std::memory_order_acquire)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * attempt));
    });
    while (!held.load(std::memory_order_acquire)) {
    }
    entering.store(true, std::memory_order_release);
    blocked_op();
    holder.join();
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == cls_name && c.wait_ns > 0) return;
    }
  }
}

/// See MultirateConfig::obs_selfcheck. Runs after the measured workload
/// (its threads are joined), so the holder and this thread are the only
/// actors on the universe.
void obs_selfcheck(Universe& uni) {
  if (!obs::enabled()) return;
  Rank& r0 = uni.rank(0);

  // cri.instance: a sender blocks on its injection instance (Alg. 1 uses
  // LOCK, not TRYLOCK, on the send path). Drain each probe message so the
  // fabric is quiescent again afterwards.
  cri::CriPool& pool = r0.pool();
  cri::CommResourceInstance& inst = pool.instance(pool.id_for_thread());
  constexpr int kSelfcheckTag = (1 << 20) + 0x5e1f;
  char buf[16] = {};
  contend_until_attributed(inst.lock(), "cri.instance", [&] {
    r0.send(kWorldComm, 1, kSelfcheckTag, buf, sizeof buf);
    uni.rank(1).recv(kWorldComm, 0, kSelfcheckTag, buf, sizeof buf);
  });

  // match.engine: any matching diagnostic takes the engine lock blocking.
  match::MatchEngine& me = r0.comm_state(kWorldComm).match();
  contend_until_attributed(me.internal_lock(), "match.engine",
                           [&] { (void)me.unexpected_count(); });
}

/// Write the configured observability artifacts while `uni` is still alive
/// (the trace rings and CRI counters die with it).
void export_observability(const MultirateConfig& cfg, Universe& uni) {
  if (cfg.obs_selfcheck) obs_selfcheck(uni);
  if (!cfg.trace_out.empty()) {
    std::ofstream os(cfg.trace_out);
    FAIRMPI_CHECK_MSG(os.good(), "cannot open multirate trace_out file");
    uni.export_chrome_trace(os);
  }
  if (!cfg.obs_out.empty()) {
    std::ofstream os(cfg.obs_out);
    FAIRMPI_CHECK_MSG(os.good(), "cannot open multirate obs_out file");
    uni.dump_observability(os);
  }
}

/// Run-wide failure tally. Threads add only on a failure, so a clean run
/// writes nothing shared.
class FailureTally {
 public:
  using Cells = std::array<std::atomic<std::uint64_t>, common::kNumErrorCodes>;

  /// Count every rank's error-sink reports. Call before traffic starts;
  /// the tally must outlive `uni`.
  void watch(Universe& uni) {
    for (int r = 0; r < uni.num_ranks(); ++r) {
      uni.rank(r).set_error_sink(
          [](const common::Error& err, void* user) {
            bump(static_cast<FailureTally*>(user)->reported_, err.code);
          },
          this);
    }
  }
  /// Count `req` if it settled failed; an unsettled request is not read.
  void recv(const Request& req) noexcept {
    if (req.done() && req.failed()) bump(recvs_, req.error());
  }

  FailureCounts counts() const noexcept {
    FailureCounts out;
    for (std::size_t c = 0; c < common::kNumErrorCodes; ++c) {
      out.recvs[c] = recvs_[c].load(std::memory_order_relaxed);
      out.reported[c] = reported_[c].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  static void bump(Cells& cells, common::ErrorCode code) noexcept {
    cells[static_cast<std::size_t>(code)].fetch_add(1, std::memory_order_relaxed);
  }

  Cells recvs_{};
  Cells reported_{};
};

/// End of run for the senders and receivers of one message stream, so no
/// sent message is left without a receiver. When its receivers leave the
/// timed loop, each sender stops and publishes how many messages it sent;
/// the receivers keep receiving (and the senders keep progressing, for
/// retransmits) until every one of them has arrived. A reliable stream
/// loses no message, so the count is reached; only a retransmit-exhausted
/// packet, a sequence hole, can hold it back (ROADMAP item 1).
class alignas(kCacheLine) DrainBook {
 public:
  DrainBook(int receivers, int senders) : receivers_(receivers), senders_(senders) {}

  /// A receiver left its timed loop; senders stop once all have.
  void receiver_stopped() noexcept { receivers_.fetch_sub(1, std::memory_order_release); }
  bool stopping() const noexcept { return receivers_.load(std::memory_order_acquire) == 0; }

  /// A stopped sender's final count of messages sent.
  void publish(std::uint64_t sent) noexcept {
    sent_.fetch_add(sent, std::memory_order_relaxed);
    senders_.fetch_sub(1, std::memory_order_release);
  }

  /// Count `n` settled receives: a message each that succeeded, else a
  /// failure.
  void note(const Request* reqs, std::size_t n, FailureTally& failures) noexcept {
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i].failed()) failures.recv(reqs[i]); else ++ok;
    }
    received_.fetch_add(ok, std::memory_order_relaxed);
  }

  /// The book's totals; final once drained().
  StreamTotals totals() const noexcept {
    return {sent_.load(std::memory_order_relaxed), received_.load(std::memory_order_relaxed)};
  }

  /// Every sender has published and every message it sent was received.
  bool drained() const noexcept {
    // Acquire on the sender count orders the published totals before it.
    return senders_.load(std::memory_order_acquire) == 0 &&
           received_.load(std::memory_order_relaxed) >= sent_.load(std::memory_order_relaxed);
  }

  /// Hold a stopped sender's rank in progress until the book drains, so
  /// the receivers get the retransmits of whatever the fabric dropped.
  void progress_until_drained(Rank& rank) const {
    SpinWait waiter;
    while (!drained()) {
      if (rank.progress() == 0) waiter.pause(); else waiter.reset();
    }
  }

  /// A receiver's drain after its timed loop: post `reqs` a window at a
  /// time through `post(i)`, calling `ack()` for each window that fills,
  /// until the book has every sent message. The receives then still
  /// posted are surplus: cancelled and not counted as failures.
  template <typename Post, typename Ack>
  void receive_until_drained(Rank& rank, std::vector<Request>& reqs, FailureTally& failures,
                             Post post, Ack ack) {
    std::vector<char> settled(reqs.size());
    while (!drained()) {
      for (std::size_t i = 0; i < reqs.size(); ++i) post(i);
      std::fill(settled.begin(), settled.end(), 0);
      std::size_t n = 0;
      SpinWait waiter;
      while (n < reqs.size() && !drained()) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (settled[i] == 0 && reqs[i].done()) {
            settled[i] = 1;
            ++n;
            note(&reqs[i], 1, failures);
          }
        }
        if (rank.progress() == 0) waiter.pause(); else waiter.reset();
      }
      if (n == reqs.size()) ack();
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (settled[i] != 0 || reqs[i].cancel()) continue;
        // Lost the cancel to a match: a message beyond the published
        // counts, which only a sender that miscounted could produce.
        while (!reqs[i].done()) rank.progress();
        note(&reqs[i], 1, failures);
      }
    }
  }

 private:
  std::atomic<int> receivers_;
  std::atomic<int> senders_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
};

}  // namespace

std::uint64_t FailureCounts::total() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t c = 0; c < common::kNumErrorCodes; ++c) {
    n += recvs[c] + reported[c];
  }
  return n;
}

MultirateResult run_pairwise(const MultirateConfig& cfg) {
  FAIRMPI_CHECK(cfg.pairs >= 1);
  FAIRMPI_CHECK(cfg.window >= 1);

  Config engine = cfg.engine;
  engine.num_ranks = cfg.process_mode ? 2 * cfg.pairs : 2;
  if (cfg.process_mode) engine.num_instances = 1;  // one context per process
  engine.max_communicators =
      std::max(engine.max_communicators, cfg.pairs + 2);
  FailureTally failures;
  Universe uni(engine);
  failures.watch(uni);

  std::vector<PairEndpoints> eps(static_cast<std::size_t>(cfg.pairs));
  for (int p = 0; p < cfg.pairs; ++p) {
    auto& ep = eps[static_cast<std::size_t>(p)];
    if (cfg.process_mode) {
      ep.sender = &uni.rank(2 * p);
      ep.receiver = &uni.rank(2 * p + 1);
      ep.sender_rank_id = 2 * p;
      ep.tag = 0;
    } else {
      ep.sender = &uni.rank(0);
      ep.receiver = &uni.rank(1);
      ep.sender_rank_id = 0;
      ep.tag = p;  // pairs share the communicator, distinguished by tag
    }
    ep.comm = (cfg.comm_per_pair && !cfg.process_mode) ? uni.create_communicator()
                                                       : kWorldComm;
  }

  const std::size_t n = cfg.payload_bytes;
  std::vector<std::uint8_t> payload(n ? n : 1, 0xAB);

  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};
  // +1 for the coordinator thread that runs the clock.
  std::barrier sync(cfg.pairs * 2 + 1);

  // One drain book per stream a receiver can take from: a pair's own,
  // except that ANY_TAG receivers on the shared communicator take from
  // every sender, so all pairs share one book.
  const bool shared_book = cfg.any_tag && !cfg.comm_per_pair && !cfg.process_mode;
  std::deque<DrainBook> books;
  for (int b = 0; b < (shared_book ? 1 : cfg.pairs); ++b) {
    books.emplace_back(shared_book ? cfg.pairs : 1, shared_book ? cfg.pairs : 1);
  }
  const auto book_of = [&](int p) -> DrainBook& { return books[shared_book ? 0 : p]; };

  // Window-credit flow control: the receiver acknowledges every consumed
  // window with a zero-byte message; the sender keeps at most kCredit
  // windows un-acknowledged. This bounds the unexpected-queue backlog while
  // keeping the pipeline full (the ack is 1/window of the traffic).
  constexpr int kCredit = 2;
  constexpr int kAckTagBase = 1 << 20;

  // Ack requests outlive the sender threads: a stopped sender may leave
  // acks posted in the matching engine, and another thread's progress call
  // must not touch freed requests.
  std::vector<std::vector<std::unique_ptr<Request>>> ack_storage(
      static_cast<std::size_t>(cfg.pairs));

  auto sender_fn = [&](int p) {
    const PairEndpoints& ep = eps[static_cast<std::size_t>(p)];
    const int dst = cfg.process_mode ? 2 * p + 1 : 1;
    const int ack_tag = kAckTagBase + ep.tag;
    sync.arrive_and_wait();  // start together
    Request req;
    auto& acks = ack_storage[static_cast<std::size_t>(p)];
    std::size_t next_wait = 0;
    DrainBook& book = book_of(p);
    std::uint64_t sent = 0;
    while (!book.stopping()) {
      for (int i = 0; i < cfg.window && !book.stopping(); ++i) {
        ep.sender->isend(ep.comm, dst, ep.tag, payload.data(), n, req);
        if (!req.failed()) ++sent;
      }
      acks.push_back(std::make_unique<Request>());
      ep.sender->irecv(ep.comm, dst, ack_tag, nullptr, 0, *acks.back());
      if (acks.size() - next_wait >= kCredit) {
        Request& pending = *acks[next_wait];
        // A stopped receiver acks only the windows it fills; leave then.
        SpinWait waiter;
        while (!pending.done() && !book.stopping()) {
          if (ep.sender->progress() == 0) waiter.pause(); else waiter.reset();
        }
        failures.recv(pending);
        ++next_wait;
      }
    }
    book.publish(sent);
    book.progress_until_drained(*ep.sender);
  };

  auto receiver_fn = [&](int p) {
    const PairEndpoints& ep = eps[static_cast<std::size_t>(p)];
    const int src = ep.sender_rank_id;
    const int tag = cfg.any_tag ? kAnyTag : ep.tag;
    const int ack_tag = kAckTagBase + ep.tag;
    std::vector<Request> reqs(static_cast<std::size_t>(cfg.window));
    std::vector<Request*> ptrs;
    ptrs.reserve(reqs.size());
    for (auto& r : reqs) ptrs.push_back(&r);
    std::vector<std::uint8_t> buf((n ? n : 1) * static_cast<std::size_t>(cfg.window));

    const auto post = [&](std::size_t i) {
      ep.receiver->irecv(ep.comm, src, tag, buf.data() + i * (n ? n : 1), n, reqs[i]);
    };
    Request ack;
    const auto send_ack = [&] { ep.receiver->isend(ep.comm, src, ack_tag, nullptr, 0, ack); };
    DrainBook& book = book_of(p);

    sync.arrive_and_wait();
    std::uint64_t my_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < reqs.size(); ++i) post(i);
      ep.receiver->wait_all(ptrs.data(), ptrs.size());
      book.note(reqs.data(), reqs.size(), failures);
      send_ack();
      if (timing.load(std::memory_order_acquire)) {
        my_count += static_cast<std::uint64_t>(cfg.window);
      }
    }
    delivered.fetch_add(my_count, std::memory_order_relaxed);
    book.receiver_stopped();
    book.receive_until_drained(*ep.receiver, reqs, failures, post, send_ack);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.pairs) * 2);
  for (int p = 0; p < cfg.pairs; ++p) threads.emplace_back(receiver_fn, p);
  for (int p = 0; p < cfg.pairs; ++p) threads.emplace_back(sender_fn, p);

  sync.arrive_and_wait();  // release everyone
  // Warmup: let windows cycle before timing.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  spc::Snapshot spc_before;
  for (int p = 0; p < cfg.pairs; ++p) {
    if (!cfg.process_mode && p > 0) break;  // thread mode: one receiver rank
    spc_before.merge(eps[static_cast<std::size_t>(p)].receiver->counters().snapshot());
  }

  const Stopwatch clock;
  timing.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(cfg.duration_s * 1e6)));
  timing.store(false, std::memory_order_release);
  const double elapsed = clock.elapsed_s();
  stop.store(true, std::memory_order_release);

  for (auto& t : threads) t.join();

  spc::Snapshot spc_after;
  for (int p = 0; p < cfg.pairs; ++p) {
    if (!cfg.process_mode && p > 0) break;
    spc_after.merge(eps[static_cast<std::size_t>(p)].receiver->counters().snapshot());
  }

  export_observability(cfg, uni);

  MultirateResult res;
  res.delivered = delivered.load();
  res.duration_s = elapsed;
  res.msg_rate = static_cast<double>(res.delivered) / elapsed;
  res.receiver_spc = spc_after.delta_since(spc_before);
  res.failures = failures.counts();
  for (const DrainBook& book : books) res.streams.push_back(book.totals());
  return res;
}

MultirateResult run_incast(const MultirateConfig& cfg) {
  FAIRMPI_CHECK(cfg.pairs >= 1);
  FAIRMPI_CHECK(cfg.window >= 1);

  Config engine = cfg.engine;
  engine.num_ranks = 2;
  FailureTally failures;
  Universe uni(engine);
  failures.watch(uni);
  Rank& sender_rank = uni.rank(0);
  Rank& receiver_rank = uni.rank(1);
  constexpr int kTag = 3;

  const std::size_t n = cfg.payload_bytes;
  std::vector<std::uint8_t> payload(n ? n : 1, 0xCD);

  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  DrainBook book(1, cfg.pairs);
  std::atomic<std::uint64_t> delivered{0};
  // Aggregate flow control: senders stay at most kMaxInFlight messages
  // ahead of the receiver's consumption, bounding the unexpected-queue
  // backlog (the eager-buffer-limit analog; N free-running senders would
  // otherwise outrun the single receiver without bound).
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> consumed{0};
  const std::uint64_t kMaxInFlight = static_cast<std::uint64_t>(cfg.window) * 8 + 1024;
  std::barrier sync(cfg.pairs + 2);  // senders + receiver + coordinator

  auto sender_fn = [&] {
    sync.arrive_and_wait();
    Request req;
    SpinWait waiter;
    std::uint64_t sent = 0;
    while (!book.stopping()) {
      if (injected.load(std::memory_order_relaxed) -
              consumed.load(std::memory_order_acquire) >=
          kMaxInFlight) {
        // Throttled: the receiver needs CPU to drain; let it run.
        waiter.pause();
        continue;
      }
      waiter.reset();
      sender_rank.isend(kWorldComm, 1, kTag, payload.data(), n, req);
      injected.fetch_add(1, std::memory_order_relaxed);
      if (!req.failed()) ++sent;
    }
    book.publish(sent);
    book.progress_until_drained(sender_rank);
  };

  auto receiver_fn = [&] {
    std::vector<Request> reqs(static_cast<std::size_t>(cfg.window));
    std::vector<Request*> ptrs;
    for (auto& r : reqs) ptrs.push_back(&r);
    std::vector<std::uint8_t> buf((n ? n : 1) * static_cast<std::size_t>(cfg.window));
    const auto post = [&](std::size_t i) {
      receiver_rank.irecv(kWorldComm, 0, kTag, buf.data() + i * (n ? n : 1), n, reqs[i]);
    };
    sync.arrive_and_wait();
    std::uint64_t my_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < reqs.size(); ++i) post(i);
      receiver_rank.wait_all(ptrs.data(), ptrs.size());
      book.note(reqs.data(), reqs.size(), failures);
      consumed.fetch_add(static_cast<std::uint64_t>(cfg.window), std::memory_order_release);
      if (timing.load(std::memory_order_acquire)) {
        my_count += static_cast<std::uint64_t>(cfg.window);
      }
    }
    delivered.store(my_count, std::memory_order_relaxed);
    book.receiver_stopped();
    book.receive_until_drained(receiver_rank, reqs, failures, post, [] {});
  };

  std::vector<std::thread> threads;
  threads.emplace_back(receiver_fn);
  for (int s = 0; s < cfg.pairs; ++s) threads.emplace_back(sender_fn);

  sync.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const spc::Snapshot before = receiver_rank.counters().snapshot();
  const Stopwatch clock;
  timing.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(cfg.duration_s * 1e6)));
  timing.store(false, std::memory_order_release);
  const double elapsed = clock.elapsed_s();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  export_observability(cfg, uni);

  MultirateResult res;
  res.delivered = delivered.load();
  res.duration_s = elapsed;
  res.msg_rate = static_cast<double>(res.delivered) / elapsed;
  res.receiver_spc = receiver_rank.counters().snapshot().delta_since(before);
  res.failures = failures.counts();
  res.streams.push_back(book.totals());
  return res;
}

}  // namespace fairmpi::multirate
