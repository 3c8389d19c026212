#include "fairmpi/progress/progress.hpp"

#include "fairmpi/common/error.hpp"

namespace fairmpi::progress {

using spc::Counter;

const char* progress_mode_name(ProgressMode m) noexcept {
  switch (m) {
    case ProgressMode::kSerial: return "serial";
    case ProgressMode::kConcurrent: return "concurrent";
  }
  return "unknown";
}

ProgressEngine::ProgressEngine(cri::CriPool& pool, PacketSink& sink, ProgressMode mode,
                               spc::CounterSet& counters, int batch, trace::Tracer* tracer)
    : pool_(pool), sink_(sink), mode_(mode), spc_(counters), batch_(batch),
      tracer_(tracer) {
  FAIRMPI_CHECK(batch >= 1);
  FAIRMPI_CHECK_MSG(counters.cri_labels() >= pool.size(), "one CRI label per pool instance");
}

void ProgressEngine::drain_locked(cri::CommResourceInstance& inst, DrainBatch& b) {
  const std::size_t cap =
      static_cast<std::size_t>(batch_) < kMaxDrainBatch ? static_cast<std::size_t>(batch_)
                                                        : kMaxDrainBatch;
  // Submission ring first: queued injections become RX/CQ traffic the pops
  // below can then harvest in the same visit (and the producers parked on
  // their tickets wake). This is the consumer half of the doorbell
  // protocol — we hold the instance lock, so we are *the* flusher.
  inst.flush_submissions(spc_);
  // Completion queue first: completions release resources (RMA pending
  // counts, send credits) that the packet path may be waiting on. The
  // per-visit cap bounds lock hold time; wait loops call progress()
  // repeatedly, so a deep CQ still drains promptly.
  b.n_comps = inst.context().cq().try_pop_n(b.comps.data(), cap);
  b.n_pkts = inst.context().rx().try_pop_n(b.pkts.data(), cap);
}

void ProgressEngine::note_drain(cri::CommResourceInstance& inst, const DrainBatch& b,
                                bool sweep) {
  const std::size_t total = b.n_pkts + b.n_comps;
  if (obs::enabled()) [[unlikely]] {
    auto c = spc_.cursor();
    c.add(spc::CriMetric::kDrainVisits, inst.id());
    if (total != 0) {
      c.add(spc::CriMetric::kPacketsDrained, inst.id(), b.n_pkts);
      c.add(spc::CriMetric::kCompletionsDrained, inst.id(), b.n_comps);
      c.record(spc::CriHist::kDrainBatch, inst.id(), total);
      if (sweep) c.add(spc::CriMetric::kOrphanSweeps, inst.id());
    }
  }
  if (total != 0 && tracer_ != nullptr) {
    tracer_->record(trace::Event::kCriDrain, static_cast<std::uint32_t>(inst.id()),
                    static_cast<std::uint32_t>(total));
  }
}

std::size_t ProgressEngine::dispatch(DrainBatch& b, bool locked) {
  std::size_t completions = 0;
  for (std::size_t i = 0; i < b.n_comps; ++i) {
    completions += sink_.handle_completion(b.comps[i]);
  }
  if (b.n_pkts != 0) completions += sink_.handle_packets(b.pkts.data(), b.n_pkts, locked);
  return completions;
}

std::size_t ProgressEngine::progress_instance_locked(cri::CommResourceInstance& inst) {
  DrainBatch b;
  drain_locked(inst, b);
  note_drain(inst, b, /*sweep=*/false);
  return dispatch(b, /*locked=*/true);
}

std::size_t ProgressEngine::progress_serial() {
  // Traditional design: one thread in the engine; others return at once.
  if (!serial_gate_.try_lock()) {
    spc_.add(Counter::kInstanceTrylockFail);
    return 0;
  }
  LockGuard adopt(serial_gate_, adopt_lock);

  std::size_t completions = 0;
  for (int i = 0; i < pool_.size(); ++i) {
    cri::CommResourceInstance& inst = pool_.instance(i);
    DrainBatch b;
    {
      // The gate already excludes other progress threads, but send paths
      // also take instance locks, so each instance is still locked
      // individually — only for the ring pops, not the dispatch.
      LockGuard guard(inst.lock());
      drain_locked(inst, b);
    }
    note_drain(inst, b, /*sweep=*/false);
    completions += dispatch(b, /*locked=*/false);
  }
  return completions;
}

std::size_t ProgressEngine::progress_concurrent() {
  // Algorithm 2. Own instance first...
  std::size_t completions = 0;
  const int own = pool_.id_for_thread();
  {
    cri::CommResourceInstance& inst = pool_.instance(own);
    if (inst.lock().try_lock()) {
      DrainBatch b;
      {
        LockGuard adopt(inst.lock(), adopt_lock);
        drain_locked(inst, b);
      }
      note_drain(inst, b, /*sweep=*/false);
      completions = dispatch(b, /*locked=*/false);
    } else {
      // Rolls up into kInstanceTrylockFail (spc::rollup).
      spc_.add(spc::CriMetric::kOwnTrylockMisses, own);
    }
  }
  // ... and only if it yielded nothing, sweep the others (guaranteeing
  // every instance is progressed eventually — orphaned-CRI liveness).
  if (completions == 0) {
    for (int i = 0; i < pool_.size(); ++i) {
      const int k = pool_.next_round_robin();
      cri::CommResourceInstance& inst = pool_.instance(k);
      if (!inst.lock().try_lock()) {
        spc_.add(Counter::kInstanceTrylockFail);
        continue;
      }
      DrainBatch b;
      {
        LockGuard adopt(inst.lock(), adopt_lock);
        drain_locked(inst, b);
      }
      note_drain(inst, b, /*sweep=*/k != own);
      completions = dispatch(b, /*locked=*/false);
      if (completions > 0) break;
    }
  }
  return completions;
}

std::size_t ProgressEngine::progress() {
  spc_.add(Counter::kProgressCalls);
  const std::size_t completions =
      mode_ == ProgressMode::kSerial ? progress_serial() : progress_concurrent();
  if (completions != 0) spc_.add(Counter::kProgressCompletions, completions);
  return completions;
}

}  // namespace fairmpi::progress
