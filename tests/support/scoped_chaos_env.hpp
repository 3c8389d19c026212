// Test helper: unsets the FAIRMPI_* chaos/reliability environment for the
// lifetime of a scope and restores it afterwards.
//
// Universe honours the fault-model knobs from the environment even for a
// programmatic Config (so a CI job can replay a whole suite over a lossy
// fabric). Tests whose fault model is programmatic and seeded — or whose
// assertions only hold on a pristine fabric, such as injection/drain
// conservation — clear that profile first so they stay deterministic under
// any environment.
#pragma once

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace fairmpi::test_support {

class ScopedChaosEnvClear {
 public:
  ScopedChaosEnvClear() {
    for (const char* name : kVars) {
      const char* value = std::getenv(name);
      saved_.emplace_back(name, value == nullptr ? std::string()
                                                 : std::string(value));
      if (value != nullptr) ::unsetenv(name);
    }
  }
  ~ScopedChaosEnvClear() {
    for (const auto& [name, value] : saved_) {
      if (!value.empty()) ::setenv(name, value.c_str(), 1);
    }
  }
  ScopedChaosEnvClear(const ScopedChaosEnvClear&) = delete;
  ScopedChaosEnvClear& operator=(const ScopedChaosEnvClear&) = delete;

 private:
  static constexpr const char* kVars[] = {
      "FAIRMPI_FAULT_DROP",      "FAIRMPI_FAULT_DUP",
      "FAIRMPI_FAULT_DELAY",     "FAIRMPI_FAULT_REORDER",
      "FAIRMPI_FAULT_CORRUPT",   "FAIRMPI_FAULT_SEED",
      "FAIRMPI_RELIABLE",        "FAIRMPI_RTO_NS",
      "FAIRMPI_RTO_MAX_NS",      "FAIRMPI_MAX_RETRIES",
      "FAIRMPI_RELIABILITY_WINDOW", "FAIRMPI_SEND_RETRY_LIMIT",
      "FAIRMPI_WATCHDOG_INTERVAL_NS", "FAIRMPI_WATCHDOG_STALL_SWEEPS",
      "FAIRMPI_RNDV_STALL_NS",   "FAIRMPI_FT",
      "FAIRMPI_FT_HEARTBEAT_NS", "FAIRMPI_FT_SUSPECT_NS",
      "FAIRMPI_FT_STRIKES",
  };
  std::vector<std::pair<const char*, std::string>> saved_;
};

}  // namespace fairmpi::test_support
