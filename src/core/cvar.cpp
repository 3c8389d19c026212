#include "fairmpi/core/cvar.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "fairmpi/common/error.hpp"

namespace fairmpi {

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_prob(std::string_view text, double& out) {
  // from_chars<double> is available on the toolchain, but strtod keeps the
  // parse locale-independent enough for "0.01"-style probabilities.
  char buf[64];
  if (text.empty() || text.size() >= sizeof buf) return false;
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + text.size()) return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  out = v;
  return true;
}

bool parse_bool(std::string_view text, bool& out) {
  if (text == "0" || text == "false" || text == "off") {
    out = false;
    return true;
  }
  if (text == "1" || text == "true" || text == "on") {
    out = true;
    return true;
  }
  return false;
}

/// Parse `text` as a cvar of kind K into `field`, which is written only on
/// success. The kind column and the field's type must agree.
template <CvarKind K, class T>
bool parse(std::string_view text, std::uint64_t min, T& field) {
  if constexpr (K == CvarKind::kBool) {
    static_assert(std::is_same_v<T, bool>);
    return parse_bool(text, field);
  } else if constexpr (K == CvarKind::kProb) {
    static_assert(std::is_same_v<T, double>);
    return parse_prob(text, field);
  } else if constexpr (K == CvarKind::kEnum) {
    for (const auto& s : cvar_spellings(T{})) {
      if (s.text != text) continue;
      field = s.value;
      return true;
    }
    return false;
  } else {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    std::uint64_t u = 0;
    if (!parse_u64(text, u) || u < min) return false;
    field = static_cast<T>(u);
    return true;
  }
}

template <class T>
void show(std::ostream& os, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    os << (value ? "true" : "false");
  } else if constexpr (std::is_enum_v<T>) {
    for (const auto& s : cvar_spellings(T{})) {
      if (s.value != value) continue;
      os << s.text;
      return;
    }
  } else {
    os << value;
  }
}

/// How each row reaches its Config field, in kCvars order.
struct FieldAccess {
  bool (*set)(Config&, std::string_view);
  void (*show)(std::ostream&, const Config&);
};

constexpr FieldAccess kAccess[] = {
#define FAIRMPI_CVAR_ACCESS(name, field, kind, min, group, doc)                            \
  {[](Config& c, std::string_view v) { return parse<CvarKind::k##kind>(v, min, c.field); }, \
   [](std::ostream& os, const Config& c) { show(os, c.field); }},
    FAIRMPI_CVARS(FAIRMPI_CVAR_ACCESS)
#undef FAIRMPI_CVAR_ACCESS
};

constexpr std::string_view kPrefix = "FAIRMPI_";
constexpr std::size_t kLongestName = [] {
  std::size_t longest = 0;
  for (const CvarInfo& c : kCvars) longest = std::max(longest, std::string_view(c.name).size());
  return longest;
}();

}  // namespace

bool apply_cvar(Config& cfg, std::string_view name, std::string_view value) {
  for (std::size_t i = 0; i < kNumCvars; ++i) {
    if (kCvars[i].name == name) return kAccess[i].set(cfg, value);
  }
  return false;
}

Config config_from_env(Config base) {
  apply_env_cvars(base, [](CvarGroup) { return true; });
  return base;
}

void apply_env_cvars(Config& cfg, bool (*pick)(CvarGroup)) {
  char env_name[kPrefix.size() + kLongestName + 1];
  std::memcpy(env_name, kPrefix.data(), kPrefix.size());
  for (std::size_t i = 0; i < kNumCvars; ++i) {
    if (!pick(kCvars[i].group)) continue;
    std::size_t n = kPrefix.size();
    for (const char* p = kCvars[i].name; *p != '\0'; ++p) {
      env_name[n++] = static_cast<char>(std::toupper(static_cast<unsigned char>(*p)));
    }
    env_name[n] = '\0';
    const char* value = std::getenv(env_name);
    if (value == nullptr) continue;
    FAIRMPI_CHECK_MSG(kAccess[i].set(cfg, value), "malformed FAIRMPI_* variable");
  }
}

std::string list_cvars(const Config& cfg) {
  std::ostringstream os;
  for (std::size_t i = 0; i < kNumCvars; ++i) {
    os << std::left << std::setw(17) << kCvars[i].name << " = ";
    kAccess[i].show(os, cfg);
    os << '\n';
  }
  return os.str();
}

}  // namespace fairmpi
