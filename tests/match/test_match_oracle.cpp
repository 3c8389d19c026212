// Ordering oracle for MatchEngine.
//
// Seeded random scripts of posts (tagged, ANY_TAG, ANY_SOURCE, both
// wildcards), arrivals (in order and out of sequence), cancels, deadline
// sweeps and source failures run against the engine and against a reference
// matcher written here. The reference states the MPI matching rules
// directly: one posted list in post order, one unexpected list in arrival
// order, first acceptable entry wins. After every step each request's
// settled outcome (source, tag, sequence number, or error) and the queue
// depths must agree. Tags are drawn either from one tag bin, so every match
// walks colliding entries, or spread across bins. The run mode feeds the
// arrivals through the engine's run entry point, as a progress drain does:
// seeded runs of 1-64 packets from mixed sources under one lock hold,
// against the reference fed the same packets one at a time.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fairmpi/common/rng.hpp"
#include "fairmpi/match/match_engine.hpp"

namespace fairmpi::match {
namespace {

using common::ErrorCode;
using p2p::kAnySource;
using p2p::kAnyTag;
using p2p::Request;

constexpr int kRanks = 4;  // sources 1..3; rank 0 is the receiver
constexpr int kSteps = 1000;

struct Msg {
  int src = 0;
  int tag = 0;
  std::uint32_t seq = 0;
};

struct Outcome {
  enum Kind : std::uint8_t { kPending, kMatched, kFailed } kind = kPending;
  Msg msg{};
  ErrorCode error = ErrorCode::kOk;

  bool operator==(const Outcome& o) const {
    if (kind != o.kind) return false;
    if (kind == kMatched) {
      return msg.src == o.msg.src && msg.tag == o.msg.tag && msg.seq == o.msg.seq;
    }
    return kind == kPending || error == o.error;
  }
};

std::string describe(const Outcome& o) {
  std::ostringstream os;
  switch (o.kind) {
    case Outcome::kPending: os << "pending"; break;
    case Outcome::kMatched:
      os << "matched src " << o.msg.src << " tag " << o.msg.tag << " seq " << o.msg.seq;
      break;
    case Outcome::kFailed: os << "failed " << static_cast<int>(o.error); break;
  }
  return os.str();
}

/// The reference matcher: linear lists, no bins, no rings.
class Reference {
 public:
  Reference(int ranks, bool overtaking)
      : overtaking_(overtaking), expected_(ranks, 0), parked_(ranks), dead_(ranks, false) {}

  /// Returns true when the request settled at once (matched or failed).
  bool post(int id, int src, int tag, std::uint64_t deadline) {
    grow(id);
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (accepts(src, tag, *it)) {
        outcome_[id] = {Outcome::kMatched, *it, ErrorCode::kOk};
        unexpected_.erase(it);
        return true;
      }
    }
    if (src != kAnySource && dead_[src]) {
      outcome_[id] = {Outcome::kFailed, {}, ErrorCode::kPeerFailed};
      return true;
    }
    posted_.push_back({id, src, tag, deadline});
    return false;
  }

  /// Returns the number of requests the arrival completed.
  std::size_t arrive(const Msg& m) {
    if (overtaking_) return match(m);
    if (m.seq != expected_[m.src]) {
      parked_[m.src].emplace(m.seq, m);
      return 0;
    }
    std::size_t done = match(m);
    ++expected_[m.src];
    auto& park = parked_[m.src];
    for (auto it = park.find(expected_[m.src]); it != park.end();
         it = park.find(expected_[m.src])) {
      done += match(it->second);
      park.erase(it);
      ++expected_[m.src];
    }
    return done;
  }

  bool cancel(int id) {
    return settle_posted([&](const Posted& p) { return p.id == id; }, ErrorCode::kCancelled) != 0;
  }

  void expire(std::uint64_t now) {
    settle_posted([&](const Posted& p) { return p.deadline != 0 && p.deadline <= now; },
                  ErrorCode::kDeadlineExceeded);
  }

  std::size_t fail_source(int src) {
    dead_[src] = true;
    parked_[src].clear();
    return settle_posted([&](const Posted& p) { return p.src == src; }, ErrorCode::kPeerFailed);
  }

  Outcome outcome(int id) const {
    return static_cast<std::size_t>(id) < outcome_.size() ? outcome_[id] : Outcome{};
  }
  std::size_t unexpected() const { return unexpected_.size(); }
  std::size_t posted() const { return posted_.size(); }
  std::size_t parked() const {
    std::size_t n = 0;
    for (const auto& p : parked_) n += p.size();
    return n;
  }

 private:
  struct Posted {
    int id;
    int src;
    int tag;
    std::uint64_t deadline;
  };

  static bool accepts(int src, int tag, const Msg& m) {
    return (src == kAnySource || src == m.src) && (tag == kAnyTag || tag == m.tag);
  }

  std::size_t match(const Msg& m) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (accepts(it->src, it->tag, m)) {
        outcome_[it->id] = {Outcome::kMatched, m, ErrorCode::kOk};
        posted_.erase(it);
        return 1;
      }
    }
    unexpected_.push_back(m);
    return 0;
  }

  template <typename Pred>
  std::size_t settle_posted(Pred pred, ErrorCode code) {
    std::size_t n = 0;
    for (auto it = posted_.begin(); it != posted_.end();) {
      if (pred(*it)) {
        outcome_[it->id] = {Outcome::kFailed, {}, code};
        it = posted_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  void grow(int id) {
    if (static_cast<std::size_t>(id) >= outcome_.size()) outcome_.resize(id + 1);
  }

  bool overtaking_;
  std::vector<Posted> posted_;
  std::vector<Msg> unexpected_;
  std::vector<std::uint32_t> expected_;
  std::vector<std::map<std::uint32_t, Msg>> parked_;
  std::vector<bool> dead_;
  std::vector<Outcome> outcome_;
};

enum class Tags { kOneBin, kSpread };

/// Four tags: all in tag_bin(3)'s bin, or each in its own bin.
std::vector<int> tag_set(Tags mode) {
  std::vector<int> tags;
  if (mode == Tags::kSpread) {
    std::set<std::uint32_t> bins;
    for (int t = 0; tags.size() < 4; ++t) {
      if (bins.insert(tag_bin(t)).second) tags.push_back(t);
    }
    return tags;
  }
  for (int t = 0; tags.size() < 4; ++t) {
    if (tag_bin(t) == tag_bin(3)) tags.push_back(t);
  }
  return tags;
}

enum class Arrivals { kOneAtATime, kRuns };

class MatchOracle
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Tags, bool>> {
 protected:
  void run_script(Arrivals arrivals);
};

TEST_P(MatchOracle, SettledPairingsMatchTheLinearReference) {
  run_script(Arrivals::kOneAtATime);
}

TEST_P(MatchOracle, RunsOfArrivalsMatchTheLinearReference) { run_script(Arrivals::kRuns); }

void MatchOracle::run_script(Arrivals arrivals) {
  const auto [seed, mode, overtaking] = GetParam();
  const std::vector<int> tags = tag_set(mode);
  Xoshiro256 rng(seed);
  spc::CounterSet spc;
  MatchEngine eng(kRanks, overtaking, spc);
  Reference ref(kRanks, overtaking);

  // Requests are not movable; a deque keeps their addresses stable.
  std::deque<Request> reqs;
  std::deque<std::uint32_t> bufs;
  std::vector<std::uint32_t> next_seq(kRanks, 0);  // next seq to generate
  // Generated but not yet arrived, per source: seq -> tag.
  std::vector<std::map<std::uint32_t, int>> unsent(kRanks);
  std::vector<bool> live(kRanks, true);
  live[0] = false;
  std::uint64_t now = 1;
  std::string op;

  const auto engine_outcome = [&](int id) {
    const Request& r = reqs[id];
    if (!r.done()) return Outcome{};
    if (r.failed()) return Outcome{Outcome::kFailed, {}, r.error()};
    return Outcome{Outcome::kMatched, {r.status().source, r.status().tag, bufs[id]},
                   ErrorCode::kOk};
  };
  const auto check = [&](int step) {
    for (int id = 0; id < static_cast<int>(reqs.size()); ++id) {
      const Outcome want = ref.outcome(id);
      const Outcome got = engine_outcome(id);
      ASSERT_TRUE(got == want) << "step " << step << " (" << op << "): request " << id
                               << " engine " << describe(got) << ", reference "
                               << describe(want);
    }
    ASSERT_EQ(eng.unexpected_count(), ref.unexpected()) << "step " << step << " " << op;
    ASSERT_EQ(eng.posted_count(), ref.posted()) << "step " << step << " " << op;
    ASSERT_EQ(eng.reorder_buffered(), ref.parked()) << "step " << step << " " << op;
  };
  // Feeds the reference and stages the packet; the engine sees the staged
  // run at flush().
  std::vector<fabric::Packet> run;
  std::size_t run_want = 0;
  const auto stage = [&](int src, std::uint32_t seq) {
    const int tag = unsent[src].at(seq);
    unsent[src].erase(seq);
    fabric::Packet& pkt = run.emplace_back();
    pkt.hdr.opcode = fabric::Opcode::kEager;
    pkt.hdr.src_rank = static_cast<std::uint16_t>(src);
    pkt.hdr.tag = tag;
    pkt.hdr.seq = seq;
    pkt.set_payload(&seq, sizeof seq);
    op += " (src " + std::to_string(src) + " tag " + std::to_string(tag) + " seq " +
          std::to_string(seq) + ")";
    run_want += ref.arrive({src, tag, seq});
  };
  const auto flush = [&] {
    std::vector<Admission> verdicts(run.size(), Admission::kShed);
    if (arrivals == Arrivals::kRuns) {
      ASSERT_EQ(eng.incoming(run.data(), run.size(), verdicts.data()), run_want) << op;
    } else {
      ASSERT_EQ(run.size(), 1u);
      ASSERT_EQ(eng.incoming(std::move(run[0]), verdicts.data()), run_want) << op;
    }
    for (const Admission v : verdicts) ASSERT_EQ(v, Admission::kAdmitted) << op;
    run.clear();
    run_want = 0;
  };
  const auto arrive = [&](int src, std::uint32_t seq) {
    op = "arrive";
    stage(src, seq);
    flush();
  };
  // Keep a few messages generated ahead so arrivals can overtake.
  const auto top_up = [&](int src) {
    while (unsent[src].size() < 6) {
      unsent[src][next_seq[src]++] = tags[rng.bounded(tags.size())];
    }
  };

  for (int step = 0; step < kSteps; ++step, ++now) {
    const std::uint64_t dice = rng.bounded(100);
    if (dice < 38) {
      const int id = static_cast<int>(reqs.size());
      const int src =
          rng.bounded(4) == 0 ? kAnySource : 1 + static_cast<int>(rng.bounded(kRanks - 1));
      const int tag = rng.bounded(4) == 0 ? kAnyTag : tags[rng.bounded(tags.size())];
      const std::uint64_t deadline = rng.bounded(5) == 0 ? now + 1 + rng.bounded(30) : 0;
      reqs.emplace_back();
      bufs.push_back(~0u);
      reqs.back().init_recv(&bufs.back(), sizeof(std::uint32_t), src, tag, deadline);
      op = "post " + std::to_string(id) + " src " + std::to_string(src) + " tag " +
           std::to_string(tag) + " deadline " + std::to_string(deadline);
      const bool want = ref.post(id, src, tag, deadline);
      ASSERT_EQ(eng.post(&reqs.back()), want) << op;
    } else if (dice < 78) {
      // One arrival, or in run mode a run of 1-64 from any live sources.
      const std::uint64_t n = arrivals == Arrivals::kRuns ? 1 + rng.bounded(64) : 1;
      op = "arrive";
      for (std::uint64_t k = 0; k < n; ++k) {
        const int src = 1 + static_cast<int>(rng.bounded(kRanks - 1));
        if (!live[src]) continue;
        top_up(src);
        auto it = unsent[src].begin();
        if (rng.bounded(3) == 0) std::advance(it, rng.bounded(unsent[src].size()));
        stage(src, it->first);
      }
      if (run.empty()) continue;
      flush();
      if (HasFatalFailure()) return;
    } else if (dice < 88) {
      if (reqs.empty()) continue;
      const int id = static_cast<int>(rng.bounded(reqs.size()));
      op = "cancel " + std::to_string(id);
      const bool want = ref.cancel(id);
      ASSERT_EQ(reqs[id].cancel(), want) << op;
    } else if (dice < 98) {
      op = "expire at " + std::to_string(now);
      ref.expire(now);
      eng.expire_deadlines(now);
    } else {
      const int src = 1 + static_cast<int>(rng.bounded(kRanks - 1));
      if (!live[src]) continue;
      live[src] = false;
      op = "fail_source " + std::to_string(src);
      const std::size_t want = ref.fail_source(src);
      ASSERT_EQ(eng.fail_source(src), want) << op;
    }
    check(step);
    if (HasFatalFailure()) return;
  }

  // Deliver everything still in flight from live sources, in order.
  for (int src = 1; src < kRanks; ++src) {
    while (live[src] && !unsent[src].empty()) {
      arrive(src, unsent[src].begin()->first);
      if (HasFatalFailure()) return;
      check(kSteps);
      if (HasFatalFailure()) return;
    }
  }
}

std::string oracle_name(
    const ::testing::TestParamInfo<std::tuple<std::uint64_t, Tags, bool>>& info) {
  const auto [seed, mode, overtaking] = info.param;
  return std::string(mode == Tags::kOneBin ? "OneBin" : "Spread") +
         (overtaking ? "Overtaking" : "Ordered") + "Seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(Scripts, MatchOracle,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13),
                                            ::testing::Values(Tags::kOneBin, Tags::kSpread),
                                            ::testing::Bool()),
                         oracle_name);

}  // namespace
}  // namespace fairmpi::match
