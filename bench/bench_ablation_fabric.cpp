// Ablation: fabric building blocks — RX ring throughput under different
// producer counts, inline vs heap payload transfer, the retransmit clone,
// the reliability tracker's track/ack cycle, the wire checksum, and the
// end-to-end injection path through an endpoint.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "fairmpi/common/mpsc_ring.hpp"
#include "fairmpi/common/spsc_ring.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/fabric/submit_ring.hpp"
#include "fairmpi/p2p/reliability.hpp"

namespace {

using fairmpi::MpscRing;
using fairmpi::SpscRing;
using fairmpi::fabric::Endpoint;
using fairmpi::fabric::Fabric;
using fairmpi::fabric::Opcode;
using fairmpi::fabric::Packet;
using fairmpi::fabric::SubmitDesc;
using fairmpi::fabric::SubmitRing;
using fairmpi::fabric::SubmitTicket;
using fairmpi::fabric::WireHeader;
using fairmpi::fabric::clone_packet;
using fairmpi::fabric::wire_checksum;

void BM_RingPushPopSingleThread(benchmark::State& state) {
  MpscRing<std::uint64_t> ring(4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.try_push(std::uint64_t{v});
    std::uint64_t out = 0;
    ring.try_pop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPopSingleThread);

/// The progress engine's drain pattern: a burst of packets lands and the
/// consumer extracts it. Manual timing covers only the drain phase (the
/// fill is the producers' cost, measured elsewhere). Two variants: one
/// try_pop per item vs one try_pop_n batch — the batch amortizes the head
/// update and is what progress.cpp does under the CRI lock.
template <bool kBatch>
void ring_drain_bench(benchmark::State& state) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  MpscRing<std::uint64_t> ring(4096);
  std::uint64_t out[64];
  std::uint64_t v = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) ring.try_push(std::uint64_t{v++});
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t drained = 0;
    if constexpr (kBatch) {
      while (drained < burst) {
        const std::size_t n = ring.try_pop_n(out, 64);
        if (n == 0) break;
        drained += n;
      }
    } else {
      while (drained < burst && ring.try_pop(out[0])) ++drained;
    }
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(drained);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(burst));
}

void BM_RingDrainSingle(benchmark::State& state) { ring_drain_bench<false>(state); }
void BM_RingDrainBatch(benchmark::State& state) { ring_drain_bench<true>(state); }
BENCHMARK(BM_RingDrainSingle)->Arg(64)->UseManualTime();
BENCHMARK(BM_RingDrainBatch)->Arg(64)->UseManualTime();

void BM_RingMultiProducer(benchmark::State& state) {
  static MpscRing<std::uint64_t>* ring = nullptr;
  if (state.thread_index() == 0) ring = new MpscRing<std::uint64_t>(8192);
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      // Consumer drains.
      std::uint64_t out;
      while (ring->try_pop(out)) benchmark::DoNotOptimize(out);
    } else {
      // No retry loop: the consumer thread may exhaust its iterations
      // first, and a spinning producer would then never terminate. A full
      // ring simply counts as one (failed) push attempt.
      benchmark::DoNotOptimize(ring->try_push(std::uint64_t{1}));
    }
  }
  if (state.thread_index() == 0) {
    delete ring;
    ring = nullptr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingMultiProducer)->Threads(2)->Threads(4);

/// The RX lane primitive (DESIGN.md §5f): one SPSC push+pop with no atomic
/// RMW anywhere. This is the floor BM_RingPushPopSingleThread's MPSC
/// protocol is compared against — the gap is the per-packet price of
/// multi-producer arbitration.
void BM_SpscLanePushPop(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.try_push(std::uint64_t{v});
    std::uint64_t out = 0;
    ring.try_pop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscLanePushPop);

/// Uncontended submission-ring round trip: claim + fill + publish on the
/// producer side, drain + ticket resolve on the consumer side. This is the
/// overhead a sender pays for going through the combining funnel instead
/// of injecting directly under the lock it already holds.
void BM_SubmitRingSubmitDrain(benchmark::State& state) {
  SubmitRing ring(64);
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  for (auto _ : state) {
    SubmitTicket ticket;
    benchmark::DoNotOptimize(ring.try_push({&pkt, &ticket, 1}));
    ring.drain([](const SubmitDesc& d) {
      d.ticket->status.store(1, std::memory_order_release);
    });
    benchmark::DoNotOptimize(ticket.load_acquire());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitRingSubmitDrain);

/// Contended combining funnel: N-1 producer threads claim descriptors
/// (doorbell batched at SubmitRing::kDoorbellBatch), one consumer drains.
/// The per-item time under threads is the headline number the lock-free
/// submission path buys — producers pay one CAS, not a lock handoff.
void BM_SubmitRingMultiProducer(benchmark::State& state) {
  static SubmitRing* ring = nullptr;
  if (state.thread_index() == 0) ring = new SubmitRing(8192);
  static Packet pkt;  // producers only pass its address through the ring
  // Tickets are static so a descriptor still in flight when a producer's
  // loop ends never points at dead stack. Unlike a real submission nobody
  // waits on them, so they are written only by the consumer — race-free.
  static SubmitTicket tickets[8][1024];
  std::size_t next = 0;
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      ring->drain([](const SubmitDesc& d) {
        d.ticket->status.store(1, std::memory_order_release);
      });
    } else {
      // No retry on full (the consumer may finish its iterations first);
      // a full ring counts as one failed claim, as in BM_RingMultiProducer.
      SubmitTicket& t = tickets[state.thread_index() & 7][next];
      next = (next + 1) & 1023;
      benchmark::DoNotOptimize(ring->try_push({&pkt, &t, 1}));
    }
  }
  if (state.thread_index() == 0) {
    delete ring;
    ring = nullptr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitRingMultiProducer)->Threads(2)->Threads(4);

void BM_PacketInlinePayload(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    Packet pkt;
    pkt.hdr.opcode = Opcode::kEager;
    pkt.set_payload(payload.data(), payload.size());
    benchmark::DoNotOptimize(pkt.payload());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PacketInlinePayload)->Arg(0)->Arg(32)->Arg(64)->Arg(256)->Arg(4096);

/// The reliability layer's retransmit master: a clone of the wire packet,
/// made per tracked send. The header and inline bytes are copied, a heap
/// payload is shared (one reference-count increment and, at the clone's
/// end, one decrement).
void BM_ClonePacket(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.set_payload(payload.data(), payload.size());
  for (auto _ : state) {
    Packet master;
    clone_packet(pkt, master);
    benchmark::DoNotOptimize(master.payload());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClonePacket)->Arg(64)->Arg(4096);

/// The sender's bookkeeping per reliable 4 KiB send: track 64 packets of
/// one stream, then retire them with ranged acks of the argument's run
/// length (1: one ack per packet; 64: one ack for the lot). Steady state,
/// so the shard table has already grown to the window.
void BM_ReliabilityTrackAck(benchmark::State& state) {
  constexpr std::uint32_t kWindow = 64;
  const auto run = static_cast<std::uint32_t>(state.range(0));
  std::atomic<std::uint64_t> due{fairmpi::kNever};
  fairmpi::p2p::ReliabilityTracker tracker(1'000'000'000, 1'000'000'000, 3, due);
  const std::string payload(4096, 'x');
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.comm_id = 1;
  pkt.set_payload(payload.data(), payload.size());
  std::uint32_t seq = 0;
  for (auto _ : state) {
    const std::uint32_t first = seq;
    for (std::uint32_t i = 0; i < kWindow; ++i) {
      pkt.hdr.seq = seq++;
      tracker.track(1, pkt, 0);
    }
    pkt.hdr.seq = first;
    fairmpi::p2p::PacketKey key = fairmpi::p2p::key_of(1, pkt.hdr);
    for (std::uint32_t i = 0; i < kWindow; i += run, key.seq += run) {
      benchmark::DoNotOptimize(tracker.ack_range(key, run));
    }
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_ReliabilityTrackAck)->Arg(1)->Arg(64);

/// The reliability layer's per-packet hash (header + payload), stamped at
/// injection under the CRI lock and verified again at the receiver.
void BM_WireChecksum(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());
  WireHeader hdr;
  hdr.opcode = Opcode::kEager;
  hdr.payload_size = static_cast<std::uint32_t>(payload.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdr);
    benchmark::DoNotOptimize(wire_checksum(hdr, bytes, payload.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(sizeof hdr + payload.size()));
}
BENCHMARK(BM_WireChecksum)->Arg(64)->Arg(4096)->Arg(32768);

void BM_EndpointInjection(benchmark::State& state) {
  Fabric fabric({1, 1});
  Endpoint ep(fabric, fabric.nic(0).context(0), 1);
  auto& rx = fabric.nic(1).context(0).rx();
  for (auto _ : state) {
    Packet pkt;
    pkt.hdr.opcode = Opcode::kEager;
    benchmark::DoNotOptimize(ep.try_send(std::move(pkt)));
    Packet out;
    rx.try_pop(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndpointInjection);

}  // namespace
