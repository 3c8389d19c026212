// Ablation: the matching engine's cost structure — in-order vs
// out-of-sequence arrival, reorder depth, posted-queue depth (across and
// within a tag bin), interleaved tags on one communicator, overtaking,
// wildcard tags, and arrivals fed one at a time vs as one drained run.
// These are the per-envelope costs §II-C identifies as the multithreaded
// bottleneck.
#include <benchmark/benchmark.h>

#include <vector>

#include "fairmpi/match/match_engine.hpp"

namespace {

using fairmpi::fabric::Opcode;
using fairmpi::fabric::Packet;
using fairmpi::match::MatchEngine;
using fairmpi::match::tag_bin;
using fairmpi::p2p::kAnyTag;
using fairmpi::p2p::Request;

Packet make_eager(std::uint32_t seq, int tag) {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = 1;
  pkt.hdr.tag = tag;
  pkt.hdr.seq = seq;
  return pkt;
}

/// In-order arrival into a pre-posted receive: the fast path.
void BM_MatchInOrder(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, /*overtaking=*/false, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&req);
    eng.incoming(make_eager(seq++, 7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchInOrder);

/// Reversed pairs: every second envelope is out of sequence and must be
/// buffered and drained — the allocation §II-C calls costly.
void BM_MatchOutOfSequencePairs(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request r1, r2;
    r1.init_recv(&buf, sizeof buf, 1, 7);
    r2.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&r1);
    eng.post(&r2);
    eng.incoming(make_eager(seq + 1, 7));  // future: buffered
    eng.incoming(make_eager(seq, 7));      // fills the gap, drains
    seq += 2;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MatchOutOfSequencePairs);

/// Deep reordering (perfbench `mr-shared` parks up to 511 packets behind
/// one hole): park N packets in reverse, then fill the hole, which drains
/// all N + 1 into pre-posted receives. The first iteration grows the
/// reorder ring; after that parking reuses its slots.
void BM_MatchReorderDepth(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::vector<Request> reqs(depth + 1);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    for (Request& r : reqs) {
      r.init_recv(&buf, sizeof buf, 1, 7);
      eng.post(&r);
    }
    for (std::uint32_t d = depth; d >= 1; --d) eng.incoming(make_eager(seq + d, 7));
    benchmark::DoNotOptimize(eng.incoming(make_eager(seq, 7)));
    seq += depth + 1;
  }
  state.SetItemsProcessed(state.iterations() * (depth + 1));
}
BENCHMARK(BM_MatchReorderDepth)->Arg(64)->Arg(512);

/// A drained batch of 64 in-order envelopes into pre-posted receives, fed
/// as runs of R packets: R = 1 takes the match lock per packet, R = 64 once
/// per batch (Rank::handle_packets).
void BM_MatchRun(benchmark::State& state) {
  const auto run = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 64;
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::vector<Request> reqs(kBatch);
  std::vector<Packet> pkts(kBatch);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      reqs[i].init_recv(&buf, sizeof buf, 1, 7);
      eng.post(&reqs[i]);
      pkts[i] = make_eager(seq++, 7);
    }
    for (std::size_t i = 0; i < kBatch; i += run) {
      benchmark::DoNotOptimize(eng.incoming(&pkts[i], run, nullptr));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MatchRun)->Arg(1)->Arg(64);

/// Same stream with overtaking: no sequence validation, no buffering.
void BM_MatchOvertaking(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, /*overtaking=*/true, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request r1, r2;
    r1.init_recv(&buf, sizeof buf, 1, 7);
    r2.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&r1);
    eng.post(&r2);
    eng.incoming(make_eager(seq + 1, 7));
    eng.incoming(make_eager(seq, 7));
    seq += 2;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MatchOvertaking);

/// Queue-search scaling: depth = posted receives with non-matching tags
/// ahead of the match (the linear scan §IV-D discusses). Decoy tags
/// 1..depth spread over the tag bins, so about depth/kTagBins of them sit
/// in the hot tag's bin; with `same_bin` every decoy does (the worst case).
void queue_search(benchmark::State& state, bool same_bin) {
  const int depth = static_cast<int>(state.range(0));
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t buf = 0;
  const int hot_tag = depth + 100;
  // Decoys that never match.
  std::vector<Request> decoys(static_cast<std::size_t>(depth));
  int tag = 0;
  for (Request& decoy : decoys) {
    do {
      ++tag;
    } while (tag == hot_tag || (same_bin && tag_bin(tag) != tag_bin(hot_tag)));
    decoy.init_recv(&buf, sizeof buf, 1, tag);
    eng.post(&decoy);
  }
  std::uint32_t seq = 0;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, hot_tag);
    eng.post(&req);
    eng.incoming(make_eager(seq++, hot_tag));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MatchQueueSearchDepth(benchmark::State& state) { queue_search(state, false); }
BENCHMARK(BM_MatchQueueSearchDepth)->Arg(0)->Arg(16)->Arg(128)->Arg(1024);

void BM_MatchQueueSearchDepthSameBin(benchmark::State& state) { queue_search(state, true); }
BENCHMARK(BM_MatchQueueSearchDepthSameBin)
    ->Name("BM_MatchQueueSearchDepth/same_bin")
    ->Arg(16)
    ->Arg(128);

/// Shared-communicator receive windows (perfbench `mr-shared`, paper
/// Fig. 3b): N receivers each post a 128-deep window for their own tag,
/// back to back, into one engine; arrivals then alternate across the tags.
/// In one per-peer queue a tag-k arrival walks the earlier windows; with a
/// bin per tag it inspects one entry.
void BM_MatchInterleavedTags(benchmark::State& state) {
  const auto ntags = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWindow = 128;
  // Tags in pairwise distinct bins.
  std::vector<int> tags;
  std::uint32_t used = 0;
  for (int t = 0; tags.size() < ntags; ++t) {
    if ((used >> tag_bin(t)) & 1) continue;
    used |= std::uint32_t{1} << tag_bin(t);
    tags.push_back(t);
  }
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::vector<Request> reqs(ntags * kWindow);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].init_recv(&buf, sizeof buf, 1, tags[i / kWindow]);
      eng.post(&reqs[i]);
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      eng.incoming(make_eager(seq++, tags[i % ntags]));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reqs.size()));
}
BENCHMARK(BM_MatchInterleavedTags)->Arg(2)->Arg(8);

/// Wildcard-tag receives skip the queue search (Fig. 4's trick): the
/// incoming envelope always matches the first posted entry.
void BM_MatchAnyTag(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, true, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, kAnyTag);
    eng.post(&req);
    eng.incoming(make_eager(seq++, 12345));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchAnyTag);

/// Unexpected path: envelope arrives first, receive posted after.
void BM_MatchUnexpectedThenPost(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    eng.incoming(make_eager(seq++, 7));
    Request req;
    req.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&req);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchUnexpectedThenPost);

}  // namespace
