#include "fairmpi/spc/spc.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <sstream>

namespace fairmpi::spc {

std::uint64_t Snapshot::get(CriMetric m, int cri) const noexcept {
  const std::size_t i = CounterSet::index(m, cri) - kNumCounters;
  return i < cells.size() ? cells[i] : 0;
}

namespace {

/// The run of `N` histogram buckets starting at cells[first] (zeros past
/// the end: a snapshot from a set with fewer labels).
template <std::size_t N>
std::array<std::uint64_t, N> bucket_run(const std::vector<std::uint64_t>& cells,
                                        std::size_t first) noexcept {
  std::array<std::uint64_t, N> out{};
  for (std::size_t b = 0; b < N && first + b < cells.size(); ++b) out[b] = cells[first + b];
  return out;
}

bool rank_cell_is_max(std::size_t i) {
  return i < static_cast<std::size_t>(kNumCounters) && is_high_water(static_cast<Counter>(i));
}

}  // namespace

std::array<std::uint64_t, kBatchHistBuckets> Snapshot::hist(CriHist h,
                                                            int cri) const noexcept {
  return bucket_run<kBatchHistBuckets>(cells, CounterSet::index(h, cri) - kNumCounters);
}

std::array<std::uint64_t, kHistBuckets> Snapshot::hist(Hist h) const noexcept {
  return bucket_run<kHistBuckets>(cells, static_cast<std::size_t>(h) * kHistBuckets);
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const {
  Snapshot out = *this;
  for (int i = 0; i < kNumCounters; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!is_high_water(static_cast<Counter>(i))) out.values[idx] -= earlier.values[idx];
  }
  for (std::size_t i = 0; i < out.cells.size() && i < earlier.cells.size(); ++i) {
    out.cells[i] -= earlier.cells[i];
  }
  return out;
}

void Snapshot::merge(const Snapshot& other) {
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const auto idx = static_cast<std::size_t>(i);
    if (is_high_water(c)) {
      values[idx] = values[idx] > other.values[idx] ? values[idx] : other.values[idx];
    } else {
      values[idx] += other.values[idx];
    }
  }
  if (cells.size() < other.cells.size()) cells.resize(other.cells.size(), 0);
  for (std::size_t i = 0; i < other.cells.size(); ++i) cells[i] += other.cells[i];
}

std::string Snapshot::to_string() const {
  std::ostringstream os;
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    os << counter_name(c) << " = " << values[static_cast<std::size_t>(i)] << '\n';
  }
  return os.str();
}

ShardStore::ShardStore(std::size_t width, bool (*is_max)(std::size_t))
    : width_(width),
      padded_((width * sizeof(std::uint64_t) + kCacheLine - 1) / kCacheLine * kCacheLine /
              sizeof(std::uint64_t)),
      is_max_(width, 0),
      base_(std::make_unique<std::atomic<std::uint64_t>[]>(width)) {
  for (std::size_t i = 0; i < width && is_max != nullptr; ++i) is_max_[i] = is_max(i) ? 1 : 0;
}

ShardStore::~ShardStore() {
  for (auto& slot : shards_) {
    std::atomic<std::uint64_t>* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    std::destroy_n(s, padded_);
    ::operator delete(s, std::align_val_t{kCacheLine});
  }
}

std::atomic<std::uint64_t>* ShardStore::slow_shard(std::size_t idx) noexcept {
  void* raw = ::operator new(padded_ * sizeof(std::uint64_t), std::align_val_t{kCacheLine});
  auto* fresh = static_cast<std::atomic<std::uint64_t>*>(raw);
  std::uninitialized_value_construct_n(fresh, padded_);
  std::atomic<std::uint64_t>* expected = nullptr;
  // For a private slot only the owning thread installs, but the overflow
  // slot makes CAS the safe idiom; the loser frees its copy and adopts the
  // winner's shard.
  if (shards_[idx].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    return fresh;
  }
  std::destroy_n(fresh, padded_);
  ::operator delete(raw, std::align_val_t{kCacheLine});
  return expected;
}

std::vector<std::uint64_t> ShardStore::read_all(bool rebased) const {
  std::vector<std::uint64_t> out(width_, 0);
  for (const auto& slot : shards_) {
    const std::atomic<std::uint64_t>* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (std::size_t i = 0; i < width_; ++i) {
      const std::uint64_t v = s[i].load(std::memory_order_relaxed);
      out[i] = is_max_[i] != 0 ? (v > out[i] ? v : out[i]) : out[i] + v;
    }
  }
  if (rebased) {
    for (std::size_t i = 0; i < width_; ++i) {
      if (is_max_[i] != 0) continue;
      const std::uint64_t base = base_[i].load(std::memory_order_relaxed);
      // Sums are monotone, so total >= base except mid-race; clamp for safety.
      out[i] = out[i] >= base ? out[i] - base : 0;
    }
  }
  return out;
}

void ShardStore::rebase() noexcept {
  const std::vector<std::uint64_t> now = read_all(/*rebased=*/false);
  // Rebase instead of zeroing the cells: an add racing this reset lands in
  // its shard either before or after the read above — never lost, only
  // attributed to the old or the new epoch.
  for (std::size_t i = 0; i < width_; ++i) {
    if (is_max_[i] == 0) base_[i].store(now[i], std::memory_order_relaxed);
  }
}

CounterSet::CounterSet(int cri_labels)
    : cri_labels_(cri_labels),
      store_(kFixedCells + static_cast<std::size_t>(cri_labels) * kCriCells, rank_cell_is_max) {}

Snapshot CounterSet::make_snapshot(bool rebased) const {
  std::vector<std::uint64_t> all = store_.read_all(rebased);
  Snapshot out;
  std::copy_n(all.begin(), kNumCounters, out.values.begin());
  out.cells.assign(all.begin() + kNumCounters, all.end());
  for (int m = 0; m < kNumCriMetrics; ++m) {
    const Counter total = rollup(static_cast<CriMetric>(m));
    if (total == Counter::kCount) continue;
    for (int cri = 0; cri < cri_labels_; ++cri) {
      out.values[index(total)] += all[index(static_cast<CriMetric>(m), cri)];
    }
  }
  return out;
}

Snapshot CounterSet::snapshot() const { return make_snapshot(/*rebased=*/true); }

Snapshot CounterSet::lifetime_snapshot() const { return make_snapshot(/*rebased=*/false); }

}  // namespace fairmpi::spc
