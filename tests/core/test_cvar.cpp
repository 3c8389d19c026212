// Control-variable (cvar / environment hint) tests.
#include "fairmpi/core/cvar.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "support/scoped_chaos_env.hpp"

namespace fairmpi {
namespace {

TEST(Cvar, NumInstances) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "num_instances", "16"));
  EXPECT_EQ(cfg.num_instances, 16);
  EXPECT_FALSE(apply_cvar(cfg, "num_instances", "0"));
  EXPECT_FALSE(apply_cvar(cfg, "num_instances", "many"));
  EXPECT_EQ(cfg.num_instances, 16);  // untouched on failure
}

TEST(Cvar, AssignmentNames) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "assignment", "rr"));
  EXPECT_EQ(cfg.assignment, cri::Assignment::kRoundRobin);
  EXPECT_TRUE(apply_cvar(cfg, "assignment", "dedicated"));
  EXPECT_EQ(cfg.assignment, cri::Assignment::kDedicated);
  EXPECT_TRUE(apply_cvar(cfg, "assignment", "round-robin"));
  EXPECT_EQ(cfg.assignment, cri::Assignment::kRoundRobin);
  EXPECT_FALSE(apply_cvar(cfg, "assignment", "magic"));
}

TEST(Cvar, ProgressMode) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "progress", "concurrent"));
  EXPECT_EQ(cfg.progress_mode, progress::ProgressMode::kConcurrent);
  EXPECT_TRUE(apply_cvar(cfg, "progress", "serial"));
  EXPECT_EQ(cfg.progress_mode, progress::ProgressMode::kSerial);
  EXPECT_FALSE(apply_cvar(cfg, "progress", "psychic"));
}

TEST(Cvar, Booleans) {
  Config cfg;
  for (const char* yes : {"1", "true", "on"}) {
    cfg.allow_overtaking = false;
    EXPECT_TRUE(apply_cvar(cfg, "allow_overtaking", yes));
    EXPECT_TRUE(cfg.allow_overtaking);
  }
  for (const char* no : {"0", "false", "off"}) {
    cfg.allow_overtaking = true;
    EXPECT_TRUE(apply_cvar(cfg, "allow_overtaking", no));
    EXPECT_FALSE(cfg.allow_overtaking);
  }
  EXPECT_FALSE(apply_cvar(cfg, "allow_overtaking", "maybe"));
}

TEST(Cvar, SizesAndLimits) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "eager_limit", "4096"));
  EXPECT_EQ(cfg.eager_limit, 4096u);
  EXPECT_TRUE(apply_cvar(cfg, "rndv_frag_bytes", "8192"));
  EXPECT_EQ(cfg.rndv_frag_bytes, 8192u);
  EXPECT_TRUE(apply_cvar(cfg, "rx_ring_entries", "128"));
  EXPECT_EQ(cfg.fabric.rx_ring_entries, 128u);
  EXPECT_TRUE(apply_cvar(cfg, "cq_entries", "64"));
  EXPECT_EQ(cfg.fabric.cq_entries, 64u);
  EXPECT_TRUE(apply_cvar(cfg, "progress_batch", "8"));
  EXPECT_EQ(cfg.progress_batch, 8);
  EXPECT_TRUE(apply_cvar(cfg, "max_communicators", "7"));
  EXPECT_EQ(cfg.max_communicators, 7);
}

TEST(Cvar, UnknownNameRejected) {
  Config cfg;
  EXPECT_FALSE(apply_cvar(cfg, "warp_speed", "9"));
}

TEST(Cvar, ConfigFromEnv) {
  ::setenv("FAIRMPI_NUM_INSTANCES", "12", 1);
  ::setenv("FAIRMPI_ASSIGNMENT", "dedicated", 1);
  ::setenv("FAIRMPI_PROGRESS", "concurrent", 1);
  ::setenv("FAIRMPI_ALLOW_OVERTAKING", "1", 1);
  const Config cfg = config_from_env();
  EXPECT_EQ(cfg.num_instances, 12);
  EXPECT_EQ(cfg.assignment, cri::Assignment::kDedicated);
  EXPECT_EQ(cfg.progress_mode, progress::ProgressMode::kConcurrent);
  EXPECT_TRUE(cfg.allow_overtaking);
  ::unsetenv("FAIRMPI_NUM_INSTANCES");
  ::unsetenv("FAIRMPI_ASSIGNMENT");
  ::unsetenv("FAIRMPI_PROGRESS");
  ::unsetenv("FAIRMPI_ALLOW_OVERTAKING");
}

TEST(Cvar, ConfigFromEnvKeepsBaseWhenUnset) {
  Config base;
  base.num_instances = 5;
  const Config cfg = config_from_env(base);
  EXPECT_EQ(cfg.num_instances, 5);
}

TEST(Cvar, MalformedEnvAborts) {
  ::setenv("FAIRMPI_NUM_INSTANCES", "banana", 1);
  EXPECT_DEATH(config_from_env(), "malformed");
  ::unsetenv("FAIRMPI_NUM_INSTANCES");
}

/// list_cvars' rows, name -> printed value.
std::map<std::string, std::string> listing(const Config& cfg) {
  std::map<std::string, std::string> out;
  std::istringstream in(list_cvars(cfg));
  for (std::string line; std::getline(in, line);) {
    const std::size_t eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    std::string name = line.substr(0, eq);
    name.erase(name.find_last_not_of(' ') + 1);
    out[name] = line.substr(eq + 3);
  }
  return out;
}

/// Sets one environment variable for a scope.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value) : name_(std::move(name)) {
    const char* old = std::getenv(name_.c_str());
    if (old != nullptr) old_ = old;
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) ::setenv(name_.c_str(), old_->c_str(), 1); else ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

/// One table row, probed through the same field its engine row writes.
struct RowProbe {
  const CvarInfo* info;
  std::string valid;  ///< a valid value that a default Config does not hold
  std::function<bool(const Config&)> holds_valid;
};

template <CvarKind K, class Field>
RowProbe probe(std::string_view name, Field field) {
  const Config base;
  using T = std::remove_cvref_t<decltype(field(base))>;
  T want{};
  std::string text;
  if constexpr (K == CvarKind::kBool) {
    want = !field(base);
    text = want ? "true" : "false";
  } else if constexpr (K == CvarKind::kProb) {
    want = 0.25;
    text = "0.25";
  } else if constexpr (K == CvarKind::kEnum) {
    for (const auto& s : cvar_spellings(T{})) {
      if (s.value == field(base)) continue;
      want = s.value;
      text = s.text;
      break;
    }
  } else {
    constexpr std::uint64_t v = 7;  // above every lower bound, no default
    want = static_cast<T>(v);
    text = std::to_string(v);
  }
  const CvarInfo* info = nullptr;
  for (const CvarInfo& c : kCvars) {
    if (c.name == name) info = &c;
  }
  return {info, text, [field, want](const Config& cfg) { return field(cfg) == want; }};
}

std::vector<RowProbe> probes() {
  return {
#define FAIRMPI_CVAR_PROBE(name, field, kind, min, group, doc) \
  probe<CvarKind::k##kind>(#name, [](const Config& c) { return c.field; }),
      FAIRMPI_CVARS(FAIRMPI_CVAR_PROBE)
#undef FAIRMPI_CVAR_PROBE
  };
}

/// Names of the rows whose listed value differs between two configs.
std::set<std::string> changed(const Config& before, const Config& after) {
  const auto a = listing(before);
  const auto b = listing(after);
  std::set<std::string> out;
  for (const auto& [name, value] : a) {
    if (b.at(name) != value) out.insert(name);
  }
  return out;
}

TEST(Cvar, ListContainsEveryKnob) {
  const std::vector<RowProbe> rows = probes();
  ASSERT_EQ(rows.size(), kNumCvars);
  EXPECT_EQ(kNumCvars, 36u);
  const auto defaults = listing(Config{});
  EXPECT_EQ(defaults.size(), kNumCvars);
  for (const RowProbe& row : rows) {
    ASSERT_NE(row.info, nullptr);
    const std::string name = row.info->name;
    EXPECT_EQ(defaults.count(name), 1u) << name;
    Config base;
    EXPECT_FALSE(row.holds_valid(base)) << name;
    {
      ScopedEnv env(test_support::cvar_env_name(*row.info), row.valid);
      const Config cfg = config_from_env();
      EXPECT_TRUE(row.holds_valid(cfg)) << name << "=" << row.valid;
      EXPECT_EQ(listing(cfg).at(name), row.valid) << name;
    }
    if (row.info->kind == CvarKind::kU64 && row.info->min > 0) {
      Config cfg;
      EXPECT_FALSE(apply_cvar(cfg, name, std::to_string(row.info->min - 1))) << name;
      EXPECT_EQ(listing(cfg).at(name), defaults.at(name)) << name;
      EXPECT_TRUE(apply_cvar(cfg, name, std::to_string(row.info->min))) << name;
    }
  }
}

TEST(Cvar, EdgeValuesKeepTheirVerdicts) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "max_retries", "0"));  // fail-fast mode
  EXPECT_EQ(cfg.max_retries, 0);
  EXPECT_FALSE(apply_cvar(cfg, "fault_drop", "1.5"));
  EXPECT_FALSE(apply_cvar(cfg, "fault_drop", "-0.1"));
  EXPECT_TRUE(apply_cvar(cfg, "fault_drop", "1"));
  EXPECT_FALSE(apply_cvar(cfg, "eager_limit", "-1"));
  EXPECT_FALSE(apply_cvar(cfg, "eager_limit", "12k"));
}

/// Sets every cvar's environment variable to its probe's valid value.
struct AllCvarsInEnv {
  AllCvarsInEnv() {
    for (const RowProbe& row : probes()) {
      env.push_back(
          std::make_unique<ScopedEnv>(test_support::cvar_env_name(*row.info), row.valid));
    }
  }
  std::vector<std::unique_ptr<ScopedEnv>> env;
};

TEST(Cvar, ChaosHookReadsItsGroups) {
  const AllCvarsInEnv env;
  Config all;
  apply_env_cvars(all, [](CvarGroup) { return true; });
  EXPECT_EQ(changed(Config{}, all).size(), kNumCvars);
  Config chaos;
  apply_env_cvars(chaos, read_by_chaos_hook);
  const std::set<std::string> want = {
      "fault_drop", "fault_dup", "fault_delay", "fault_reorder", "fault_corrupt", "fault_seed",
      "reliable", "rto_ns", "rto_max_ns", "max_retries", "reliability_window",
      "send_retry_limit", "ft", "ft_heartbeat_ns", "ft_suspect_ns", "ft_strikes",
      "trace", "trace_entries", "obs",
      "unexpected_cap", "payload_pool_cap", "tracker_cap", "op_deadline_ns",
  };
  EXPECT_EQ(want.size(), 23u);
  EXPECT_EQ(changed(Config{}, chaos), want);
}

/// The FAIRMPI_* variables a ScopedChaosEnvClear of `knobs` unsets.
std::set<std::string> cleared_by(test_support::ScopedChaosEnvClear::Knobs knobs) {
  const AllCvarsInEnv env;
  std::set<std::string> out;
  {
    const test_support::ScopedChaosEnvClear clear(knobs);
    for (const CvarInfo& c : kCvars) {
      if (std::getenv(test_support::cvar_env_name(c).c_str()) == nullptr) out.insert(c.name);
    }
  }
  for (const CvarInfo& c : kCvars) {
    EXPECT_NE(std::getenv(test_support::cvar_env_name(c).c_str()), nullptr) << c.name;
  }
  return out;
}

TEST(Cvar, ScopedChaosEnvClearSets) {
  using Knobs = test_support::ScopedChaosEnvClear::Knobs;
  const std::set<std::string> faults = {
      "fault_drop", "fault_dup", "fault_delay", "fault_reorder", "fault_corrupt", "fault_seed",
      "reliable", "rto_ns", "rto_max_ns", "max_retries", "reliability_window",
      "send_retry_limit", "ft", "ft_heartbeat_ns", "ft_suspect_ns", "ft_strikes",
  };
  const std::set<std::string> caps = {"unexpected_cap", "payload_pool_cap", "tracker_cap"};
  EXPECT_EQ(faults.size(), 16u);
  EXPECT_EQ(cleared_by(Knobs::kFaults), faults);
  EXPECT_EQ(cleared_by(Knobs::kCaps), caps);
  std::set<std::string> both = faults;
  both.insert(caps.begin(), caps.end());
  EXPECT_EQ(cleared_by(Knobs::kFaultsAndCaps), both);
}

std::string read_source(const std::string& rel) {
  std::ifstream in(std::string(FAIRMPI_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(in.good()) << rel;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// README's "Control variables" table: one row per cvar, its environment
/// name, its default as list_cvars prints it, and its doc.
TEST(Cvar, ReadmeTableMatchesEngine) {
  const std::string readme = read_source("README.md");
  const std::size_t at = readme.find("\n## Control variables\n");
  ASSERT_NE(at, std::string::npos);
  std::map<std::string, std::string> documented;  // name -> whole row
  std::istringstream in(readme.substr(at + 1));
  std::string line;
  std::getline(in, line);  // the heading
  for (bool in_table = false; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) break;
    if (line.rfind("| `", 0) != 0) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    const std::size_t close = line.find('`', 3);
    documented[line.substr(3, close - 3)] = line;
  }
  const auto defaults = listing(Config{});
  std::set<std::string> engine;
  for (const CvarInfo& c : kCvars) {
    engine.insert(c.name);
    const std::string want = std::string("| `") + c.name + "` | `" +
                             test_support::cvar_env_name(c) + "` | `" + defaults.at(c.name) +
                             "` | " + c.doc + " |";
    const auto it = documented.find(c.name);
    if (it == documented.end()) {
      ADD_FAILURE() << "README lacks a row for " << c.name << "; want:\n" << want;
    } else {
      EXPECT_EQ(it->second, want);
    }
  }
  for (const auto& [name, row] : documented) {
    EXPECT_EQ(engine.count(name), 1u) << "README documents a cvar the engine lacks: " << row;
  }
}

/// Every FAIRMPI_<NAME>=value (or YAML `FAIRMPI_<NAME>:` env key) a doc or
/// CI job sets names a cvar: apply_env_cvars reads only the names it knows,
/// so a deleted knob would be silently ignored. -DFAIRMPI_* build defines
/// are not environment variables.
TEST(Cvar, DocsAndCiSetOnlyRealKnobs) {
  std::set<std::string> known;
  for (const CvarInfo& c : kCvars) known.insert(test_support::cvar_env_name(c));
  const std::string prefix = "FAIRMPI_";
  std::size_t assignments = 0;
  for (const char* rel : {"README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}) {
    const std::string text = read_source(rel);
    for (std::size_t at = text.find(prefix); at != std::string::npos;
         at = text.find(prefix, at + 1)) {
      const bool define = at >= 2 && text.compare(at - 2, 2, "-D") == 0;
      const bool glued = at > 0 && (std::isalnum(static_cast<unsigned char>(text[at - 1])) ||
                                    text[at - 1] == '_');
      std::size_t end = at + prefix.size();
      while (end < text.size() && (std::isupper(static_cast<unsigned char>(text[end])) ||
                                   std::isdigit(static_cast<unsigned char>(text[end])) ||
                                   text[end] == '_')) {
        ++end;
      }
      const std::size_t line_start = text.rfind('\n', at) + 1;
      const bool yaml_key = text.compare(end, 2, ": ") == 0 &&
                            text.find_first_not_of(' ', line_start) == at;
      if (define || glued || (text.compare(end, 1, "=") != 0 && !yaml_key)) continue;
      ++assignments;
      EXPECT_EQ(known.count(text.substr(at, end - at)), 1u)
          << rel << " sets " << text.substr(at, end - at) << ", which is no cvar";
    }
  }
  EXPECT_GT(assignments, 0u);
}

}  // namespace
}  // namespace fairmpi
