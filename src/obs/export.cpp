// Observability export: Chrome trace-event JSON + the dump_observability
// snapshot (Universe member functions live here so core/ never includes the
// obs headers beyond what cri.hpp already pulls in).
//
// Trace format: the Trace Event Format's JSON-object flavor
// ({"traceEvents":[...]}), readable by chrome://tracing and Perfetto's
// legacy importer (https://ui.perfetto.dev). Mapping:
//
//   rank          -> process (pid), named via "M"/process_name metadata
//   thread slot   -> thread (tid) within the rank's process, named likewise
//   trace::Entry  -> "i" (instant) event, scope "t", args {a, b}
//   kCriDrain     -> additionally an "n" (async instant) event on an async
//                    lane per (rank, instance) — cat "cri", id "<instance>" —
//                    so each CRI renders as its own track of drain activity
//   otherData     -> {"schema": ...}: the counter, CRI-metric and event
//                    names, as dump_observability() carries them too
//
// Timestamps: trace::Entry records steady-clock ns, shared by all ranks of
// the in-process universe; the exporter rebases to the earliest entry and
// converts to the format's microseconds with 3 decimals, so ns resolution
// survives the JSON round-trip.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/contention.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi {

namespace {

/// Minimal JSON string escape: the names we emit are static identifiers,
/// but lock-class names come from callers (tests mint their own), so be
/// correct rather than trusting them.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Microsecond timestamp with nanosecond resolution kept as decimals.
void emit_ts(std::ostream& os, std::uint64_t ns_since_t0) {
  os << ns_since_t0 / 1000 << '.';
  const auto frac = static_cast<int>(ns_since_t0 % 1000);
  os << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

void emit_spc(std::ostream& os, const spc::Snapshot& snap, const char* indent) {
  os << "{";
  for (int c = 0; c < spc::kNumCounters; ++c) {
    if (c != 0) os << ",";
    os << "\n" << indent << "  \"" << spc::counter_name(static_cast<spc::Counter>(c))
       << "\": " << snap.values[static_cast<std::size_t>(c)];
  }
  os << "\n" << indent << "}";
}

/// `rows`' names as a JSON array, in table order.
template <class Rows, class Row>
void emit_names(std::ostream& os, const Rows& rows, const char* Row::*name) {
  os << '[';
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    os << (i == 0 ? "\"" : ", \"") << rows[i].*name << '"';
  }
  os << ']';
}

/// The names an export is read by, each family in its table's order:
/// obs_report.py checks a file against the schema it carries.
void emit_schema(std::ostream& os) {
  os << "{\"counters\": ";
  emit_names(os, spc::kCounters, &spc::CounterInfo::name);
  os << ", \"cri_metrics\": ";
  emit_names(os, spc::kCriMetrics, &spc::CriMetricInfo::key);
  os << ", \"events\": ";
  emit_names(os, trace::kEvents, &trace::EventInfo::name);
  os << '}';
}

template <std::size_t N>
void emit_hist(std::ostream& os, const std::array<std::uint64_t, N>& hist) {
  os << '[';
  for (std::size_t b = 0; b < N; ++b) os << (b == 0 ? "" : ", ") << hist[b];
  os << ']';
}

}  // namespace

void Universe::export_chrome_trace(std::ostream& os) const {
  struct RankTrace {
    int rank;
    std::vector<trace::Entry> entries;
  };
  std::vector<RankTrace> traces;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& rank : ranks_) {
    RankTrace rt{rank->id(), rank->tracer().snapshot()};
    if (!rt.entries.empty()) t0 = std::min(t0, rt.entries.front().timestamp_ns);
    traces.push_back(std::move(rt));
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;

  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) os << ",";
    first = false;
    return os << "\n ";
  };

  for (const RankTrace& rt : traces) {
    sep() << "{\"ph\":\"M\",\"pid\":" << rt.rank
          << ",\"name\":\"process_name\",\"args\":{\"name\":\"rank " << rt.rank
          << "\"}}";
    // Name each thread track that actually recorded something.
    std::vector<std::uint16_t> tids;
    for (const trace::Entry& e : rt.entries) {
      if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) tids.push_back(e.tid);
    }
    std::sort(tids.begin(), tids.end());
    for (const std::uint16_t tid : tids) {
      sep() << "{\"ph\":\"M\",\"pid\":" << rt.rank << ",\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << (tid == trace::kNoTraceTid ? std::string("unregistered")
                                          : "thread-slot " + std::to_string(tid))
            << "\"}}";
    }
    for (const trace::Entry& e : rt.entries) {
      const std::uint64_t rel = e.timestamp_ns - t0;
      sep() << "{\"ph\":\"i\",\"pid\":" << rt.rank << ",\"tid\":" << e.tid
            << ",\"ts\":";
      emit_ts(os, rel);
      os << ",\"s\":\"t\",\"cat\":\"fairmpi\",\"name\":\"" << trace::event_name(e.event)
         << "\",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b << "}}";
      if (e.event == trace::Event::kCriDrain) {
        // One async lane per (rank, instance): cat+id identify the lane.
        sep() << "{\"ph\":\"n\",\"pid\":" << rt.rank << ",\"tid\":" << e.tid
              << ",\"ts\":";
        emit_ts(os, rel);
        os << ",\"cat\":\"cri\",\"id\":\"cri-" << rt.rank << '.' << e.a
           << "\",\"name\":\"cri " << e.a << " drain\",\"args\":{\"instance\":" << e.a
           << ",\"batch\":" << e.b << "}}";
      }
    }
  }
  os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":";
  emit_schema(os);
  os << "}}\n";
}

void Universe::dump_observability(std::ostream& os) const {
  // The clock every age below is read against; a reader of two dumps uses
  // it to tell whether the oldest rendezvous is still the same transfer.
  const std::uint64_t now = now_ns();
  os << "{\n";
  os << "  \"obs_enabled\": " << (obs::enabled() ? "true" : "false") << ",\n";
  os << "  \"dumped_at_ns\": " << now << ",\n";
  os << "  \"schema\": ";
  emit_schema(os);
  os << ",\n";
  os << "  \"config\": {\n"
     << "    \"num_ranks\": " << num_ranks() << ",\n"
     << "    \"num_instances\": " << cfg_.num_instances << ",\n"
     << "    \"assignment\": \"" << cri::assignment_name(cfg_.assignment) << "\",\n"
     << "    \"progress\": \"" << progress::progress_mode_name(cfg_.progress_mode)
     << "\",\n"
     << "    \"reliable\": " << (cfg_.reliable ? "true" : "false") << ",\n"
     << "    \"ft\": " << (cfg_.ft_enabled ? "true" : "false") << "\n  },\n";

  // Per-class lock contention. Process-global: a process hosting several
  // universes reports one merged table (lock classes are shared anyway).
  os << "  \"contention\": [";
  const std::vector<obs::ClassContention> classes = obs::contention_snapshot();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const obs::ClassContention& c = classes[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(c.name)
       << "\", \"rank\": " << c.rank << ", \"acquires\": " << c.acquires
       << ", \"contended\": " << c.contended << ", \"wait_ns\": " << c.wait_ns
       << ", \"trylock_fails\": " << c.trylock_fails << "}";
  }
  os << "\n  ],\n";

  os << "  \"ranks\": [";
  spc::Snapshot total;  // spc_total: the sum of exactly the rows printed
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    Rank& rank = *ranks_[r];
    // One read of the rank's registry feeds every section below.
    const spc::Snapshot snap = rank.counters().snapshot();
    total.merge(snap);
    os << (r == 0 ? "" : ",") << "\n    {\"rank\": " << rank.id()
       << ", \"instances\": [";
    for (int i = 0; i < rank.pool().size(); ++i) {
      // Two lock-free reads, racy against the instance's producers and its
      // consumer: a CRI whose backlog stays while `delivered - rx_backlog`
      // does not move between two dumps is not being drained.
      fabric::NetworkContext& ctx = rank.pool().instance(i).context();
      os << (i == 0 ? "" : ",") << "\n      {\"id\": " << i;
      for (int m = 0; m < spc::kNumCriMetrics; ++m) {
        os << ", \"" << spc::kCriMetrics[m].key
           << "\": " << snap.get(static_cast<spc::CriMetric>(m), i);
      }
      for (int h = 0; h < static_cast<int>(spc::CriHist::kCount); ++h) {
        os << ", \"" << spc::kCriHistKeys[h] << "\": ";
        emit_hist(os, snap.hist(static_cast<spc::CriHist>(h), i));
      }
      os << ", \"delivered\": " << ctx.delivered()
         << ", \"rx_backlog\": " << ctx.rx().size_approx() << "}";
    }
    // Live rendezvous transfers (tombstoned ones are settled and excluded),
    // read under the registry lock, and the age of the oldest.
    std::size_t rndv_pending = 0;
    std::uint64_t oldest_born = now;
    {
      LockGuard guard(rank.rndv_lock_);
      const auto scan = [&](const auto& registry) {
        for (const auto& [cookie, st] : registry) {
          if (st->failed) continue;
          ++rndv_pending;
          oldest_born = std::min(oldest_born, st->born_ns);
        }
      };
      scan(rank.rndv_sends_);
      scan(rank.rndv_recvs_);
    }
    os << "\n    ], \"rndv_pending\": " << rndv_pending
       << ", \"rndv_oldest_age_ns\": " << now - oldest_born << ", \"ft\": ";
    // Liveness view (null with ft off): this rank's verdict on every peer,
    // plus the detection-latency histogram (bucket i: confirmed < 2^i ms
    // after last contact; last bucket overflows).
    ft::FailureDetector* det = rank.failure_detector();
    if (det == nullptr) {
      os << "null";
    } else {
      os << "{\"peers\": [";
      for (int p = 0; p < num_ranks(); ++p) {
        os << (p == 0 ? "" : ", ") << '"'
           << (p == rank.id() ? "self" : ft::peer_state_name(det->state(p))) << '"';
      }
      os << "], \"suspects\": " << snap.get(spc::Counter::kFtSuspects)
         << ", \"deaths\": " << snap.get(spc::Counter::kFtDeaths)
         << ", \"detection_latency_ms_hist\": ";
      emit_hist(os, snap.hist(spc::Hist::kFtDetectionMs));
      os << "}";
    }
    os << ", \"overload\": ";
    // Overload-control view (§5h; null when no cap is configured): the
    // facts the caps bound, read now (each match lock briefly), and the
    // active limits so a report is self-describing.
    const overload::Limits* lim = rank.overload_limits();
    if (lim == nullptr) {
      os << "null";
    } else {
      std::size_t unexpected = 0;
      std::size_t at_cap = 0;
      for (auto& slot : rank.comms_) {
        p2p::CommState* cs = slot.load(std::memory_order_acquire);
        if (cs == nullptr) continue;
        unexpected += cs->match().unexpected_count();
        at_cap += cs->match().peers_at_cap();
      }
      os << "{\"unexpected_total\": " << unexpected << ", \"peers_at_cap\": " << at_cap
         << ", \"tracker_in_flight\": "
         << (rank.tracker_ != nullptr ? rank.tracker_->in_flight() : 0)
         << ", \"unexpected_cap\": " << lim->unexpected_cap
         << ", \"pool_cap_bytes\": " << lim->pool_cap_bytes
         << ", \"tracker_cap\": " << lim->tracker_cap << "}";
    }
    os << ", \"spc\": ";
    emit_spc(os, snap, "    ");
    os << "}";
  }
  os << "\n  ],\n";

  // Process-global payload-pool accounting (§5h): shared by every rank in
  // the process, so it reports once, not per rank.
  const fabric::PayloadPoolStats pool_stats = fabric::payload_pool_stats();
  os << "  \"payload_pool\": {\"in_use_bytes\": " << pool_stats.in_use_bytes
     << ", \"high_water_bytes\": " << pool_stats.high_water_bytes << "},\n";

  os << "  \"spc_total\": ";
  emit_spc(os, total, "  ");
  os << "\n}\n";
}

}  // namespace fairmpi
