#include "fairmpi/rma/window.hpp"

#include <cstring>

#include "fairmpi/common/backoff.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::rma {

using spc::Counter;

namespace {
std::atomic<std::uint64_t> g_next_window_key{0};
}  // namespace

Window::Window(WindowGroup& group, Rank& rank, void* base, std::size_t bytes)
    : group_(&group), rank_(&rank), base_(base), bytes_(bytes),
      window_key_(g_next_window_key.fetch_add(1, std::memory_order_relaxed)) {}

Window::PendingSlot& Window::thread_slot() {
  // Sticky per-thread binding keyed by the window's global id (same
  // pattern as CriPool::dedicated_id); keys are never reused, so stale
  // entries from destroyed windows are simply dead weight.
  thread_local std::vector<PendingSlot*> bindings;
  if (bindings.size() <= window_key_) bindings.resize(window_key_ + 1, nullptr);
  PendingSlot*& slot = bindings[window_key_];
  if (slot == nullptr) {
    LockGuard guard(slots_lock_);
    slots_.push_back(std::make_unique<PendingSlot>());
    slot = slots_.back().get();
  }
  return *slot;
}

std::uint64_t Window::pending() const {
  LockGuard guard(slots_lock_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->count->load(std::memory_order_acquire);
  }
  return total;
}

WindowGroup::WindowGroup(Universe& universe, const std::vector<Region>& regions) {
  FAIRMPI_CHECK_MSG(static_cast<int>(regions.size()) == universe.num_ranks(),
                    "one region per rank required");
  windows_.reserve(regions.size());
  for (int r = 0; r < universe.num_ranks(); ++r) {
    const Region& reg = regions[static_cast<std::size_t>(r)];
    FAIRMPI_CHECK_MSG(reg.base != nullptr || reg.bytes == 0, "null region with nonzero size");
    windows_.emplace_back(new Window(*this, universe.rank(r), reg.base, reg.bytes));
  }
}

void Window::post_completion(cri::CommResourceInstance& inst) {
  PendingSlot& slot = thread_slot();
  slot.count->fetch_add(1, std::memory_order_relaxed);
  inst.note_injection(rank_->counters());  // RMA ops inject a CQ event, not a packet
  const fabric::Completion done{fabric::Completion::Kind::kRmaDone, &slot.count.value};
  while (!inst.context().try_push_completion(done)) {
    // CQ overrun: harvest one event inline (the NIC analog is a CQ poll
    // forced by the driver before more work can be posted).
    fabric::Completion drained;
    if (inst.context().cq().try_pop(drained)) {
      rank_->handle_completion(drained);
    }
  }
}

bool Window::fail_if_dead(int target) {
  if (!rank_->peer_failed(target)) return false;
  // No data movement, no pending increment: the op never existed as far as
  // flush is concerned; the typed error is the whole outcome.
  rank_->counters().add(Counter::kFtPeerFailedOps);
  rank_->report_error(common::Error{common::ErrorCode::kPeerFailed, rank_->id(),
                                    target, window_key_});
  return true;
}

void Window::put(int target, std::size_t disp, const void* src, std::size_t n) {
  Window& tw = group_->window(target);
  FAIRMPI_CHECK_MSG(disp + n <= tw.bytes_, "put out of window bounds");
  if (fail_if_dead(target)) return;

  cri::CommResourceInstance& inst = rank_->pool().instance(rank_->pool().id_for_thread());
  {
    LockGuard guard(inst.lock());
    if (n != 0) {
      std::memcpy(static_cast<std::byte*>(tw.base_) + disp, src, n);
    }
    post_completion(inst);
  }
  rank_->counters().add(Counter::kRmaPuts);
  rank_->counters().add(Counter::kBytesSent, n);
  rank_->tracer().record(trace::Event::kRmaPut, static_cast<std::uint32_t>(target),
                         static_cast<std::uint32_t>(n));
}

void Window::get(int target, std::size_t disp, void* dst, std::size_t n) {
  Window& tw = group_->window(target);
  FAIRMPI_CHECK_MSG(disp + n <= tw.bytes_, "get out of window bounds");
  if (fail_if_dead(target)) return;

  cri::CommResourceInstance& inst = rank_->pool().instance(rank_->pool().id_for_thread());
  {
    LockGuard guard(inst.lock());
    if (n != 0) {
      std::memcpy(dst, static_cast<const std::byte*>(tw.base_) + disp, n);
    }
    post_completion(inst);
  }
  rank_->counters().add(Counter::kRmaGets);
  rank_->counters().add(Counter::kBytesReceived, n);
  rank_->tracer().record(trace::Event::kRmaGet, static_cast<std::uint32_t>(target),
                         static_cast<std::uint32_t>(n));
}

void Window::accumulate_add_u64(int target, std::size_t disp, std::uint64_t operand) {
  (void)fetch_add_u64(target, disp, operand);
}

std::uint64_t Window::fetch_add_u64(int target, std::size_t disp, std::uint64_t operand) {
  Window& tw = group_->window(target);
  FAIRMPI_CHECK_MSG(disp % alignof(std::uint64_t) == 0, "accumulate needs aligned disp");
  FAIRMPI_CHECK_MSG(disp + sizeof(std::uint64_t) <= tw.bytes_,
                    "accumulate out of window bounds");
  if (fail_if_dead(target)) return 0;

  cri::CommResourceInstance& inst = rank_->pool().instance(rank_->pool().id_for_thread());
  std::uint64_t old = 0;
  {
    LockGuard guard(inst.lock());
    {
      // Target-side atomicity: accumulates to one location serialize on the
      // target window's stripe lock, regardless of initiating rank/thread.
      LockGuard atomic_guard(tw.accumulate_lock(disp));
      auto* cell = reinterpret_cast<std::uint64_t*>(static_cast<std::byte*>(tw.base_) + disp);
      old = *cell;
      *cell = old + operand;
    }
    post_completion(inst);
  }
  rank_->counters().add(Counter::kRmaAccumulates);
  return old;
}

template <typename DonePredicate>
void Window::drain_until(DonePredicate done) {
  progress::ProgressEngine& engine = rank_->engine();
  common::Backoff waiter;
  while (!done()) {
    // Alg. 2, as in progress(): own instance first — a thread's completions
    // usually sit on the instance it injected through — and the others
    // only when that yields nothing, so a flush with work of its own
    // leaves its neighbours' locks alone.
    const progress::ProgressEngine::Visit pass = engine.pass();
    if (pass.drained) {
      waiter.reset();
      continue;
    }
    if (!pass.refused) {
      // No instance had work: our completions are in another thread's
      // drain batch, being dispatched. Wait it out.
      waiter.pause();
      continue;
    }
    // A held lock refused an instance with work. Record the miss, back off
    // adaptively, and once the backoff saturates stop try-locking: block
    // on our own instance (the contention profiler attributes the wait
    // like every other contended acquire) and drain it for real. Bounded:
    // the hold we are waiting out is a ring pop or an RMA op, never
    // unbounded user code.
    rank_->counters().add(Counter::kRmaFlushAllBusy);
    if (waiter.saturated()) {
      cri::CriPool& pool = rank_->pool();
      if (engine.visit(pool.instance(pool.id_for_thread()),
                       progress::ProgressEngine::Take::kBlock, /*sweep=*/false)
              .drained) {
        waiter.reset();
        continue;
      }
    }
    waiter.pause();
  }
}

void Window::flush(int target) {
  (void)target;  // pending ops are tracked per thread, not per target
  flush_all();
}

void Window::flush_all() {
  rank_->counters().add(Counter::kRmaFlushes);
  PendingSlot& slot = thread_slot();
  rank_->tracer().record(
      trace::Event::kRmaFlush,
      static_cast<std::uint32_t>(slot.count->load(std::memory_order_relaxed)));
  drain_until([&slot] { return slot.count->load(std::memory_order_acquire) == 0; });
}

void Window::flush_process() {
  rank_->counters().add(Counter::kRmaFlushes);
  drain_until([this] { return pending() == 0; });
}

void Window::lock_all() noexcept {
  epoch_open_.store(true, std::memory_order_relaxed);
}

void Window::unlock_all() {
  flush_process();
  epoch_open_.store(false, std::memory_order_relaxed);
}

void Window::lock(LockKind kind, int target) {
  std::atomic<int>& state = group_->window(target).target_lock_;
  SpinWait waiter;
  if (kind == LockKind::kExclusive) {
    int expected = 0;
    while (!state.compare_exchange_weak(expected, -1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      expected = 0;
      waiter.pause();
    }
    return;
  }
  // Shared: increment unless an exclusive holder (-1) is present.
  int cur = state.load(std::memory_order_relaxed);
  for (;;) {
    if (cur < 0) {
      waiter.pause();
      cur = state.load(std::memory_order_relaxed);
      continue;
    }
    if (state.compare_exchange_weak(cur, cur + 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void Window::unlock(int target) {
  // MPI_Win_unlock completes all operations to the target first.
  flush(target);
  std::atomic<int>& state = group_->window(target).target_lock_;
  const int cur = state.load(std::memory_order_relaxed);
  FAIRMPI_CHECK_MSG(cur != 0, "unlock without a held target lock");
  if (cur < 0) {
    state.store(0, std::memory_order_release);
  } else {
    state.fetch_sub(1, std::memory_order_release);
  }
}

common::ErrorCode WindowGroup::fence_arrive(Rank& self, std::uint64_t deadline_ns) {
  const int n = num_ranks();
  const int gen = fence_generation_.load(std::memory_order_acquire);
  if (fence_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
    fence_arrived_.store(0, std::memory_order_relaxed);
    fence_generation_.store(gen + 1, std::memory_order_release);
    return common::ErrorCode::kOk;
  }
  SpinWait waiter;
  while (fence_generation_.load(std::memory_order_acquire) == gen) {
    // ft escape: a participant confirmed dead by our detector will never
    // arrive, so this spin would hang every survivor forever. The check is
    // per-iteration atomic loads only, and always false with ft off (the
    // detector never confirms anyone), preserving the pure-spin behaviour.
    for (int r = 0; r < n; ++r) {
      if (r != self.id() && self.peer_failed(r)) {
        return common::ErrorCode::kPeerFailed;
      }
    }
    // Deadline escape (§5h): a straggler-stuck fence fails typed instead
    // of hanging. The abandoned arrival leaves the barrier broken — this
    // is an exit ramp, not a recoverable timeout.
    if (deadline_ns != 0 && now_ns() >= deadline_ns) {
      return common::ErrorCode::kDeadlineExceeded;
    }
    waiter.pause();
  }
  return common::ErrorCode::kOk;
}

void Window::fence() { (void)fence_checked(); }

common::ErrorCode Window::fence_checked() {
  // Complete our outbound operations (all threads of this rank), then
  // rendezvous with every rank so all inbound operations are complete too
  // before anyone proceeds.
  flush_process();
  const std::uint64_t rel = rank_->universe().config().op_deadline_ns;
  const common::ErrorCode ec =
      group_->fence_arrive(*rank_, rel == 0 ? 0 : now_ns() + rel);
  if (ec == common::ErrorCode::kPeerFailed) {
    rank_->counters().add(Counter::kFtPeerFailedOps);
  } else if (ec == common::ErrorCode::kDeadlineExceeded) {
    rank_->counters().add(Counter::kDeadlineExceededOps);
  }
  if (ec != common::ErrorCode::kOk) {
    rank_->report_error(common::Error{ec, rank_->id(), /*peer=*/-1, window_key_});
  }
  return ec;
}

}  // namespace fairmpi::rma
