// Test helper: unsets the FAIRMPI_* chaos/reliability environment for the
// lifetime of a scope and restores it afterwards.
//
// Universe honours the fault-model knobs from the environment even for a
// programmatic Config (so a CI job can replay a whole suite over a lossy
// fabric). Tests whose fault model is programmatic and seeded — or whose
// assertions only hold on a pristine fabric, such as injection/drain
// conservation — clear that profile first so they stay deterministic under
// any environment. Tests that pin their own overload caps clear the cap
// knobs too, and a test that pins only its caps keeps the env's fault
// profile (Knobs::kCaps).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace fairmpi::test_support {

class ScopedChaosEnvClear {
 public:
  /// Which knobs the scope clears: the fault/reliability profile, the
  /// overload caps, or both.
  enum class Knobs { kFaults, kCaps, kFaultsAndCaps };

  explicit ScopedChaosEnvClear(Knobs knobs = Knobs::kFaults) {
    if (knobs != Knobs::kCaps) clear(kVars);
    if (knobs != Knobs::kFaults) clear(kCapVars);
  }
  ~ScopedChaosEnvClear() {
    for (const auto& [name, value] : saved_) {
      if (!value.empty()) ::setenv(name, value.c_str(), 1);
    }
  }
  ScopedChaosEnvClear(const ScopedChaosEnvClear&) = delete;
  ScopedChaosEnvClear& operator=(const ScopedChaosEnvClear&) = delete;

 private:
  template <std::size_t N>
  void clear(const char* const (&names)[N]) {
    for (const char* name : names) {
      const char* value = std::getenv(name);
      saved_.emplace_back(name, value == nullptr ? std::string()
                                                 : std::string(value));
      if (value != nullptr) ::unsetenv(name);
    }
  }

  static constexpr const char* kVars[] = {
      "FAIRMPI_FAULT_DROP",      "FAIRMPI_FAULT_DUP",
      "FAIRMPI_FAULT_DELAY",     "FAIRMPI_FAULT_REORDER",
      "FAIRMPI_FAULT_CORRUPT",   "FAIRMPI_FAULT_SEED",
      "FAIRMPI_RELIABLE",        "FAIRMPI_RTO_NS",
      "FAIRMPI_RTO_MAX_NS",      "FAIRMPI_MAX_RETRIES",
      "FAIRMPI_RELIABILITY_WINDOW", "FAIRMPI_SEND_RETRY_LIMIT",
      "FAIRMPI_FT",              "FAIRMPI_FT_HEARTBEAT_NS",
      "FAIRMPI_FT_SUSPECT_NS",   "FAIRMPI_FT_STRIKES",
  };
  static constexpr const char* kCapVars[] = {
      "FAIRMPI_UNEXPECTED_CAP", "FAIRMPI_PAYLOAD_POOL_CAP", "FAIRMPI_TRACKER_CAP",
  };
  std::vector<std::pair<const char*, std::string>> saved_;
};

}  // namespace fairmpi::test_support
