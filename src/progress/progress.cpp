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
  fabric::NetworkContext& ctx = inst.context();
  // Take the work word before any pop: a producer that publishes after
  // this rings it again for the next visit, and one whose ring this
  // exchange read is visible to the pops below (DESIGN.md §5f "Work word").
  ctx.work().take();
  // Submission ring first: queued injections become RX/CQ traffic the pops
  // below can then harvest in the same visit (and the producers parked on
  // their tickets wake). We hold the instance lock, so we are *the*
  // flusher.
  inst.flush_submissions(spc_);
  // Completion queue first: completions release resources (RMA pending
  // counts, send credits) that the packet path may be waiting on. The
  // per-visit cap bounds lock hold time; wait loops call progress()
  // repeatedly, so a deep CQ still drains promptly.
  b.n_comps = ctx.cq().try_pop_n(b.comps.data(), cap);
  b.n_pkts = ctx.rx().try_pop_n(b.pkts.data(), cap);
  // A full pop may have left work behind that no producer will ring for.
  if (b.n_comps == cap || b.n_pkts == cap) ctx.work().ring();
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

void ProgressEngine::dispatch(DrainBatch& b, Visit& v) {
  for (std::size_t i = 0; i < b.n_comps; ++i) {
    v.completions += sink_.handle_completion(b.comps[i]);
  }
  if (b.n_pkts != 0) v.completions += sink_.handle_packets(b.pkts.data(), b.n_pkts, v.acked);
}

ProgressEngine::Visit ProgressEngine::visit(cri::CommResourceInstance& inst, Take take,
                                            bool sweep) {
  Visit v;
  // The gate: no producer has rung since the last drain took the word, so
  // there is nothing to pop — skip the lock, the rings and the batch.
  if (!inst.context().work().rung()) return v;
  DrainBatch b;
  if (take == Take::kBlock) {
    LockGuard guard(inst.lock());
    drain_locked(inst, b);
  } else if (inst.lock().try_lock()) {
    LockGuard adopt(inst.lock(), adopt_lock);
    drain_locked(inst, b);
  } else {
    v.refused = true;
    return v;
  }
  v.drained = true;
  note_drain(inst, b, sweep);
  dispatch(b, v);
  return v;
}

ProgressEngine::Visit ProgressEngine::progress_serial() {
  Visit result;
  // Traditional design: one thread in the engine; others return at once.
  if (!serial_gate_.try_lock()) {
    spc_.add(Counter::kInstanceTrylockFail);
    return result;
  }
  LockGuard adopt(serial_gate_, adopt_lock);
  // The gate already excludes other progress threads, but send paths also
  // take instance locks, so each visit still locks its instance — only for
  // the ring pops, not the dispatch.
  for (int i = 0; i < pool_.size(); ++i) {
    const Visit v = visit(pool_.instance(i), Take::kBlock, /*sweep=*/false);
    result.completions += v.completions;
    result.acked += v.acked;
  }
  return result;
}

ProgressEngine::Visit ProgressEngine::pass() {
  // Algorithm 2. Own instance first...
  const int own = pool_.id_for_thread();
  Visit result = visit(pool_.instance(own), Take::kTry, /*sweep=*/false);
  if (result.refused) spc_.add(spc::CriMetric::kOwnTrylockMisses, own);  // rolls up
  // An ack that retired tracked packets is progress, as a completion is
  // (Alg. 2 counts CQ events, and an ack is one): own-instance acks answer
  // this rank's own sends, so they dry up when its senders stop, and the
  // sweep below runs again (DESIGN.md §5j "Acks end the pass").
  if (result.productive()) return result;
  // ... and only if it yielded nothing, sweep the others (every instance
  // whose word is set gets visited: orphaned-CRI liveness). The start
  // rotates per thread, so sweepers share no counter.
  thread_local unsigned sweep_start = 0;
  const int n = pool_.size();
  int k = static_cast<int>(sweep_start++ % static_cast<unsigned>(n));
  for (int i = 0; i < n; ++i, k = k + 1 == n ? 0 : k + 1) {
    if (k == own) continue;
    const Visit v = visit(pool_.instance(k), Take::kTry, /*sweep=*/true);
    result.drained |= v.drained;
    if (v.refused) {
      result.refused = true;
      spc_.add(Counter::kInstanceTrylockFail);
    }
    if (v.productive()) {
      result.completions = v.completions;
      result.acked = v.acked;
      break;
    }
  }
  return result;
}

ProgressEngine::Visit ProgressEngine::progress() {
  spc_.add(Counter::kProgressCalls);
  const Visit v = mode_ == ProgressMode::kSerial ? progress_serial() : pass();
  if (v.completions != 0) spc_.add(Counter::kProgressCompletions, v.completions);
  return v;
}

}  // namespace fairmpi::progress
