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

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fairmpi/core/cvar.hpp"

namespace fairmpi::test_support {

/// The environment variable a control variable is read from.
inline std::string cvar_env_name(const CvarInfo& cvar) {
  std::string out = "FAIRMPI_";
  for (const char* p = cvar.name; *p != '\0'; ++p) {
    out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(*p))));
  }
  return out;
}

class ScopedChaosEnvClear {
 public:
  /// Which knobs the scope clears: the fault/reliability profile (the
  /// CvarGroup::kFault rows), the overload caps (kCap), or both.
  enum class Knobs { kFaults, kCaps, kFaultsAndCaps };

  explicit ScopedChaosEnvClear(Knobs knobs = Knobs::kFaults) {
    for (const CvarInfo& cvar : kCvars) {
      if ((cvar.group == CvarGroup::kFault && knobs != Knobs::kCaps) ||
          (cvar.group == CvarGroup::kCap && knobs != Knobs::kFaults)) {
        clear(cvar_env_name(cvar));
      }
    }
  }
  ~ScopedChaosEnvClear() {
    for (const auto& [name, value] : saved_) ::setenv(name.c_str(), value.c_str(), 1);
  }
  ScopedChaosEnvClear(const ScopedChaosEnvClear&) = delete;
  ScopedChaosEnvClear& operator=(const ScopedChaosEnvClear&) = delete;

 private:
  void clear(std::string name) {
    const char* value = std::getenv(name.c_str());
    if (value == nullptr) return;
    saved_.emplace_back(name, value);
    ::unsetenv(name.c_str());
  }

  std::vector<std::pair<std::string, std::string>> saved_;
};

}  // namespace fairmpi::test_support
