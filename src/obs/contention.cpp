#include "fairmpi/obs/contention.hpp"

#include <cstring>
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/spc/spc.hpp"

namespace fairmpi::obs {

namespace {

/// Cells per lock class in the registry's shard store.
enum Cell : std::size_t { kAcquires = 0, kContended, kWaitCycles, kTrylockFails, kCellsPerClass };

/// The process-global lock-class registry: the intern table names each
/// label, and the counts live in one spc::ShardStore (per-thread shards,
/// like every other counter in the engine). The intern lock is a bare
/// Spinlock on purpose: this file implements the profiler RankedLock
/// reports into, so routing its own lock through RankedLock would recurse
/// (and interning is a once-per-class cold path anyway).
// Static-contract note (DESIGN.md §5e): names/ranks deliberately carry no
// FAIRMPI_GUARDED_BY(intern_lock). They are written only under the lock,
// but snapshot readers read them lock-free — made safe by the release
// store to n_classes below paired with readers' acquire load (entries
// below n_classes are immutable once published). A guarded_by annotation
// would force readers to take the lock and outlaw the publish protocol.
struct Registry {
  // lint: allow(unranked-mutex) profiler-internal leaf lock, see comment above
  Spinlock intern_lock;
  std::atomic<int> n_classes{0};
  const char* names[kMaxContentionClasses] = {};
  std::uint16_t ranks[kMaxContentionClasses] = {};
  spc::ShardStore cells{kMaxContentionClasses * kCellsPerClass};
};

/// Process-lifetime and never destroyed: lock hooks may fire from threads
/// that outlive static destruction.
Registry& registry() noexcept {
  // lint: allow(hotpath-alloc) one-time construction of the process-global registry
  static Registry* const r = new Registry();
  return *r;
}

std::size_t cell(std::uint16_t cls, Cell c) noexcept {
  return static_cast<std::size_t>(cls) * kCellsPerClass + c;
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint16_t intern_contention_class(std::uint16_t rank, const char* name) noexcept {
  Registry& r = registry();
  LockGuard guard(r.intern_lock);
  const int n = r.n_classes.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (r.ranks[i] == rank && std::strcmp(r.names[i], name) == 0) {
      return static_cast<std::uint16_t>(i);
    }
  }
  if (n >= kMaxContentionClasses) return kNoContentionClass;  // unprofiled, not fatal
  r.names[n] = name;
  r.ranks[n] = rank;
  r.n_classes.store(n + 1, std::memory_order_release);
  return static_cast<std::uint16_t>(n);
}

void note_uncontended_acquire(std::uint16_t cls) noexcept {
  if (cls >= kMaxContentionClasses) return;
  registry().cells.writer().add(cell(cls, kAcquires), 1);
}

void note_contended_acquire(std::uint16_t cls, std::uint64_t wait_cycles) noexcept {
  if (cls >= kMaxContentionClasses) return;
  spc::ShardStore::Writer w = registry().cells.writer();
  w.add(cell(cls, kAcquires), 1);
  w.add(cell(cls, kContended), 1);
  w.add(cell(cls, kWaitCycles), wait_cycles);
}

void note_trylock_fail(std::uint16_t cls) noexcept {
  if (cls >= kMaxContentionClasses) return;
  registry().cells.writer().add(cell(cls, kTrylockFails), 1);
}

std::vector<ClassContention> contention_snapshot() {
  Registry& r = registry();
  const int n = r.n_classes.load(std::memory_order_acquire);
  const std::vector<std::uint64_t> all = r.cells.read_all(/*rebased=*/true);
  std::vector<ClassContention> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto cls = static_cast<std::uint16_t>(i);
    ClassContention& row = out[static_cast<std::size_t>(i)];
    row.name = r.names[i];
    row.rank = r.ranks[i];
    row.acquires = all[cell(cls, kAcquires)];
    row.contended = all[cell(cls, kContended)];
    row.wait_ns = CycleClock::to_ns(all[cell(cls, kWaitCycles)]);
    row.trylock_fails = all[cell(cls, kTrylockFails)];
  }
  return out;
}

void reset_contention_for_test() noexcept { registry().cells.rebase(); }

}  // namespace fairmpi::obs
