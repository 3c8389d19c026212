// Control variables: the paper's hint mechanism (§III-B).
//
// "An implementation can provide the user with a way to give a hint via
// environment variable(s), MPI info key(s), or other means (MCA parameters
// for Open MPI or the new MPI control variables MPI_T cvar) to let the
// implementation know how many threads the application intends to use."
//
// fairmpi exposes every Config knob as a named control variable, settable
// programmatically (apply_cvar) or through FAIRMPI_* environment variables
// (config_from_env) — so a deployment can switch between the paper's
// designs without recompiling:
//
//   FAIRMPI_NUM_INSTANCES=20 FAIRMPI_ASSIGNMENT=dedicated ...
//   FAIRMPI_PROGRESS=concurrent ./my_app
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "fairmpi/core/config.hpp"

namespace fairmpi {

/// Apply one control variable to a Config. Names (case-sensitive):
///   num_instances        int >= 1       CRIs per rank
///   assignment           rr|round-robin|dedicated
///   progress             serial|concurrent
///   allow_overtaking     0|1|true|false
///   progress_batch       int >= 1
///   eager_limit          bytes
///   rndv_frag_bytes      bytes >= 1
///   rx_ring_entries      int >= 2   PER-LANE RX depth (per-source credit
///                        window; a context's RX queue is one SPSC lane per
///                        source stream, see fabric.hpp)
///   submit_ring_entries  int >= 2   per-CRI lock-free submission ring
///   cq_entries           int >= 2
///   max_communicators    int >= 1
///   trace                0|1|true|false   enable the per-rank trace ring
///   trace_entries        ring capacity (0 with trace=1 uses a default)
///   obs                  0|1|true|false   observability layer (contention
///                        profiling + per-CRI utilization; process-sticky)
/// Returns false (leaving cfg untouched) on unknown name or bad value.
bool apply_cvar(Config& cfg, std::string_view name, std::string_view value);

/// Build a Config from FAIRMPI_<UPPERCASE_NAME> environment variables,
/// starting from `base`. Unset variables keep the base value; malformed
/// values abort (a misspelled deployment knob should be loud).
Config config_from_env(Config base = {});

/// Apply FAIRMPI_<UPPERCASE_NAME> for each control variable in `names`
/// that is set; a malformed value aborts. config_from_env and the
/// universe's chaos hook each pass their own name table.
void apply_env_cvars(Config& cfg, std::span<const char* const> names);

/// Human-readable list of every control variable with its current value —
/// the MPI_T-style introspection surface.
std::string list_cvars(const Config& cfg);

}  // namespace fairmpi
