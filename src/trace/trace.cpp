#include "fairmpi/trace/trace.hpp"

#include <algorithm>

#include "fairmpi/common/thread_slot.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::trace {

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 0 : next_pow2(capacity)),
      mask_(capacity_ == 0 ? 0 : capacity_ - 1),
      slots_(capacity_) {}

void Tracer::record(Event event, std::uint32_t a, std::uint32_t b) noexcept {
  if (!enabled()) return;
  const std::uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(idx) & mask_];
  // Seqlock-style write: odd sequence marks the slot as in flux so
  // snapshot() can skip torn entries. The CAS *claims* the slot: when the
  // ring wraps onto a slot whose writer is still mid-flight, ours is the
  // record the lossy ring would have discarded anyway, so drop it. Without
  // the claim, two writers interleave their field stores — a writer-writer
  // race TSan caught (both sides looked like valid entries to snapshot()
  // because they finish on the same even sequence). The CAS acquire also
  // orders us after the previous writer's release store of seq.
  std::uint64_t seq = slot.sequence.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.sequence.compare_exchange_strong(seq, seq + 1, std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
    return;
  }
  // Relaxed atomic field stores: a concurrent snapshot() may read these
  // mid-write (it detects and discards the value via the sequence recheck,
  // but the loads themselves must not be a data race).
  const int slot_id = common::this_thread_slot();
  const std::uint16_t tid = slot_id == common::kNoThreadSlot
                                ? kNoTraceTid
                                : static_cast<std::uint16_t>(slot_id);
  std::atomic_ref(slot.entry.timestamp_ns).store(now_ns(), std::memory_order_relaxed);
  std::atomic_ref(slot.entry.event).store(event, std::memory_order_relaxed);
  std::atomic_ref(slot.entry.tid).store(tid, std::memory_order_relaxed);
  std::atomic_ref(slot.entry.a).store(a, std::memory_order_relaxed);
  std::atomic_ref(slot.entry.b).store(b, std::memory_order_relaxed);
  slot.sequence.store(seq + 2, std::memory_order_release);
}

std::vector<Entry> Tracer::snapshot() const {
  std::vector<Entry> out;
  out.reserve(capacity_);
  for (const Slot& slot : slots_) {
    const std::uint64_t before = slot.sequence.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    // atomic_ref needs a mutable lvalue even for loads; the entry is never
    // written through this path.
    Entry& e = const_cast<Slot&>(slot).entry;
    Entry copy;
    copy.timestamp_ns = std::atomic_ref(e.timestamp_ns).load(std::memory_order_relaxed);
    copy.event = std::atomic_ref(e.event).load(std::memory_order_relaxed);
    copy.tid = std::atomic_ref(e.tid).load(std::memory_order_relaxed);
    copy.a = std::atomic_ref(e.a).load(std::memory_order_relaxed);
    copy.b = std::atomic_ref(e.b).load(std::memory_order_relaxed);
    const std::uint64_t after = slot.sequence.load(std::memory_order_acquire);
    if (after != before) continue;  // overwritten while copying
    out.push_back(copy);
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& x, const Entry& y) { return x.timestamp_ns < y.timestamp_ns; });
  return out;
}

void Tracer::dump(std::ostream& os) const {
  const std::vector<Entry> entries = snapshot();
  if (entries.empty()) {
    os << "(trace empty)\n";
    return;
  }
  const std::uint64_t t0 = entries.front().timestamp_ns;
  for (const Entry& e : entries) {
    os << "+" << (e.timestamp_ns - t0) << "ns\ttid=" << e.tid << '\t'
       << event_name(e.event) << "\ta=" << e.a << "\tb=" << e.b << '\n';
  }
}

}  // namespace fairmpi::trace
