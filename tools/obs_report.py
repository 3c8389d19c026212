#!/usr/bin/env python3
"""Observability report / trace validator for fairmpi.

Two roles, combinable in one invocation:

  --validate TRACE.json    Structurally validate an exported Chrome
                           trace-event file (Universe::export_chrome_trace):
                           top-level object schema, per-event required keys,
                           phase-specific constraints ("M" metadata, "i"
                           instants, "n" async instants), monotone-sane
                           timestamps, that every (pid, tid) carrying
                           events also carries thread_name metadata, and
                           that every event name is in the schema the trace
                           carries (otherData.schema.events).

  --report OBS.json        Render Universe::dump_observability() output as
                           lock-contention and per-CRI utilization tables,
                           after rejecting schema drift: missing keys, wrong
                           histogram lengths, or a spc/spc_total object that
                           lacks a counter of the dump's own schema.
                           --require-wait CLASS (repeatable) turns "class
                           CLASS recorded zero wait time" into a failure —
                           CI uses it to assert the profiler attributes
                           blocked time where the design says it must go.

  --diff BEFORE.json AFTER.json
                           Compare two dump_observability() snapshots of
                           one universe, AFTER taken later, and name what
                           did not move between them: every CRI with an RX
                           backlog in both dumps whose consumption
                           (delivered - rx_backlog) did not advance, and
                           every rank whose oldest pending rendezvous is
                           the same transfer, older in AFTER. Exits 1 when
                           it names anything.

Exit status: 0 ok, 1 validation/requirement failure or a named stall,
2 usage error.
Stdlib only (json/argparse) — runs on a bare CI runner.
"""

from __future__ import annotations

import argparse
import json
import sys

VALID_PHASES = {"M", "i", "n", "B", "E", "X", "b", "e"}

# dump_observability() schema (DESIGN.md §5d): --report fails before
# rendering if a per-CRI row, contention row or ft section lacks a key, or
# a histogram changes length (its buckets are read by position). The
# counter, per-CRI metric and event names come from the "schema" block
# each export carries; the keys below are not engine tables.
SCHEMA_LISTS = ("counters", "cri_metrics", "events")
# Per-rank stall facts, read under the rendezvous lock at dump time.
RANK_KEYS = ("rank", "instances", "rndv_pending", "rndv_oldest_age_ns")
# Per-CRI cells written whether or not obs is on: each is the only record
# of an always-on rank SPC (spc::rollup), so they read non-zero in a
# snapshot taken with obs off. The other per-CRI cells are obs-only.
ALWAYS_ON_INSTANCE_KEYS = ("own_trylock_misses", "submit_claimed", "submit_cas_retries")
INSTANCE_HIST_LENGTHS = {"drain_hist": 7, "submit_flush_hist": 7}
CONTENTION_KEYS = ("name", "rank", "acquires", "contended", "wait_ns", "trylock_fails")
FT_KEYS = ("peers", "suspects", "deaths")
FT_HIST_LENGTHS = {"detection_latency_ms_hist": 8}


def fail(msg: str) -> None:
    print(f"obs_report: FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


# ---------------------------------------------------------------- validate


def validate_trace(path: str, verbose: bool) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: not readable JSON: {exc}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")

    named_threads: set[tuple[int, int]] = set()
    event_threads: set[tuple[int, int]] = set()
    instants = 0
    async_lanes: set[tuple[int, str]] = set()
    unknown_names: set[str] = set()
    other = doc.get("otherData")
    event_names = set(read_schema(other if isinstance(other, dict) else {}, path)["events"])

    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: event is not an object")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            fail(f"{where}: bad or missing ph {ph!r}")
        if "pid" not in ev or not isinstance(ev["pid"], int):
            fail(f"{where}: missing integer pid")

        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name", "process_sort_index",
                                      "thread_sort_index"):
                fail(f"{where}: unknown metadata record {ev.get('name')!r}")
            if ev["name"] == "thread_name":
                if "tid" not in ev:
                    fail(f"{where}: thread_name metadata without tid")
                named_threads.add((ev["pid"], ev["tid"]))
            continue

        # Non-metadata events need a timestamp and a name.
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: missing or negative ts")
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            fail(f"{where}: missing name")

        if ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                fail(f"{where}: instant event without a valid scope 's'")
            if "tid" not in ev:
                fail(f"{where}: instant event without tid")
            event_threads.add((ev["pid"], ev["tid"]))
            instants += 1
            if name not in event_names:
                unknown_names.add(name)
        elif ph == "n":
            if "id" not in ev:
                fail(f"{where}: async instant without an id")
            if not ev.get("cat"):
                fail(f"{where}: async instant without a cat")
            async_lanes.add((ev["pid"], str(ev["id"])))

    orphans = event_threads - named_threads
    if orphans:
        fail(f"{path}: threads with events but no thread_name metadata: {sorted(orphans)}")
    if unknown_names:
        fail(f"{path}: event names not in its schema: {sorted(unknown_names)}")

    print(f"obs_report: {path}: OK — {len(events)} events "
          f"({instants} instants, {len(named_threads)} named threads, "
          f"{len(async_lanes)} CRI lanes)")
    if verbose:
        for pid, lane in sorted(async_lanes):
            print(f"  async lane: pid={pid} id={lane}")


# ------------------------------------------------------------------ report


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    out = []
    line = "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers))
    out.append(line)
    out.append("-" * len(line))
    for row in rows:
        out.append("  ".join(cell.rjust(widths[c]) if c else cell.ljust(widths[c])
                             for c, cell in enumerate(row)))
    return "\n".join(out)


def fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.2f}us"
    return f"{ns}ns"


def missing_fields(row: dict, keys, hist_lengths: dict[str, int], where: str) -> list[str]:
    out = [f"{where} is missing {k!r}" for k in keys if k not in row]
    for key, want in hist_lengths.items():
        got = row.get(key)
        if not isinstance(got, list) or len(got) != want:
            out.append(f"{where}: {key!r} must be a {want}-bucket list, got {got!r}")
    return out


def read_schema(doc: dict, path: str) -> dict:
    """The name lists an export carries, failing when they are absent."""
    schema = doc.get("schema")
    if not isinstance(schema, dict) or not all(
            isinstance(schema.get(k), list) for k in SCHEMA_LISTS):
        fail(f"{path}: missing schema with {', '.join(SCHEMA_LISTS)} name lists")
    return schema


def schema_drift(doc: dict) -> list[str]:
    """Every failure of the §5d snapshot schema (see RANK_KEYS & co.)."""
    out = []
    instance_keys = ("id", *doc["schema"]["cri_metrics"], "delivered", "rx_backlog")
    for c in doc["contention"]:
        out += missing_fields(c, CONTENTION_KEYS, {}, f"contention row {c.get('name')!r}")
    for rank in doc["ranks"]:
        r = rank.get("rank")
        out += missing_fields(rank, RANK_KEYS, {}, f"rank row r{r}")
        for inst in rank.get("instances", []):
            out += missing_fields(inst, instance_keys, INSTANCE_HIST_LENGTHS,
                                  f"r{r}.cri{inst.get('id')}")
        if rank.get("ft") is not None:
            out += missing_fields(rank["ft"], FT_KEYS, FT_HIST_LENGTHS, f"r{r}.ft")
    return out


def load_snapshot(path: str) -> dict:
    """A dump_observability() snapshot, failing on unreadable JSON or drift."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: not readable JSON: {exc}")

    for key in ("obs_enabled", "dumped_at_ns", "contention", "ranks", "spc_total"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")
    read_schema(doc, path)
    drift = schema_drift(doc)
    if drift:
        fail(f"{path}: schema drift: " + "; ".join(drift))
    return doc


def report_obs(path: str, require_wait: list[str]) -> None:
    doc = load_snapshot(path)
    # Every counter object must carry every schema counter: the tables
    # below read them by name, and the chaos jobs' accounting depends on
    # them.
    counters = doc["schema"]["counters"]
    for where, spc in [("spc_total", doc["spc_total"])] + [
            (f"r{rank['rank']}.spc", rank.get("spc", {})) for rank in doc["ranks"]]:
        missing = [name for name in counters if name not in spc]
        if missing:
            fail(f"{path}: {where} lacks schema counters {missing}")

    cfg = doc.get("config", {})
    print(f"fairmpi observability report — {path}")
    print(f"  obs_enabled={doc['obs_enabled']}  ranks={cfg.get('num_ranks')}  "
          f"instances={cfg.get('num_instances')}  "
          f"assignment={cfg.get('assignment')}  progress={cfg.get('progress')}")
    print()

    # --- lock contention ---
    classes = sorted(doc["contention"], key=lambda c: -int(c["wait_ns"]))
    rows = []
    for c in classes:
        acq = int(c["acquires"])
        contended = int(c["contended"])
        rows.append([
            c["name"], str(c["rank"]), str(acq), str(contended),
            f"{100.0 * contended / acq:.2f}%" if acq else "-",
            fmt_ns(int(c["wait_ns"])), str(c["trylock_fails"]),
        ])
    print("lock contention (by wait time):")
    print(render_table(
        ["class", "rank", "acquires", "contended", "cont%", "wait", "trylock-fails"],
        rows))
    print()

    # --- per-CRI utilization ---
    util_rows = []
    for rank in doc["ranks"]:
        for inst in rank["instances"]:
            hist = inst["drain_hist"]
            util_rows.append([
                f"r{rank['rank']}.cri{inst['id']}",
                str(inst["injections"]), str(inst["packets_drained"]),
                str(inst["completions_drained"]), str(inst["drain_visits"]),
                str(inst["own_trylock_misses"]), str(inst["orphan_sweeps"]),
                "/".join(str(h) for h in hist),
                str(inst["delivered"]), str(inst["rx_backlog"]),
            ])
    print("per-CRI utilization:")
    print(render_table(
        ["instance", "inject", "pkts-out", "comps-out", "visits",
         "own-miss", "sweeps", "batch-hist(1/2/4/8/16/32/33+)",
         "delivered", "rx-backlog"],
        util_rows))
    print(f"  always on, even with obs off: {', '.join(ALWAYS_ON_INSTANCE_KEYS)}.")
    print("  visits and own-miss count only instances whose work word was set:"
          " an idle instance is never try-locked.")
    for rank in doc["ranks"]:
        if rank["rndv_pending"]:
            print(f"  r{rank['rank']}: {rank['rndv_pending']} rendezvous pending, "
                  f"oldest {fmt_ns(rank['rndv_oldest_age_ns'])}")
    print()

    # --- per-CRI submission ring (lock-free injection path, DESIGN.md §5f) ---
    submit_rows = []
    for rank in doc["ranks"]:
        for inst in rank["instances"]:
            submit_rows.append([
                f"r{rank['rank']}.cri{inst['id']}",
                str(inst["submit_claimed"]), str(inst["submit_cas_retries"]),
                "/".join(str(h) for h in inst["submit_flush_hist"]),
            ])
    if submit_rows:
        print("per-CRI submission ring:")
        print(render_table(
            ["instance", "claimed", "cas-retries",
             "flush-hist(1/2/4/8/16/32/33+)"],
            submit_rows))

    # --- overload control (DESIGN.md §5h) ---
    # The per-rank view is null when no cap is configured.
    overload_rows = []
    for rank in doc["ranks"]:
        ov = rank.get("overload")
        if ov is None:
            continue
        spc = rank["spc"]
        overload_rows.append([
            f"r{rank['rank']}", str(ov["unexpected_total"]),
            str(ov["peers_at_cap"]), str(ov["tracker_in_flight"]),
            str(ov["unexpected_cap"]), str(ov["pool_cap_bytes"]),
            str(ov["tracker_cap"]), str(spc["OverloadPausedPackets"]),
            str(spc["CancelledOps"]), str(spc["DeadlineExceededOps"]),
        ])
    if overload_rows:
        print("overload control (per capped rank):")
        print(render_table(
            ["rank", "unexpected", "at-cap", "trk-in-flight", "unexp-cap",
             "pool-cap", "trk-cap", "held", "cancels", "deadlines"],
            overload_rows))
        pool = doc.get("payload_pool", {})
        print(f"  payload_pool: in_use={pool.get('in_use_bytes')}B "
              f"high_water={pool.get('high_water_bytes')}B")
        print()

    # --- collectives (DESIGN.md §5i) ---
    # Only rendered once any rank ran a collective; p2p-only runs skip the
    # table.
    coll_rows = []
    for rank in doc["ranks"]:
        spc = rank["spc"]
        if not spc["CollOps"]:
            continue
        coll_rows.append([f"r{rank['rank']}"] + [str(spc[name]) for name in (
            "CollOps", "CollRounds", "CollSegments", "CollBinomialOps", "CollRsagOps",
            "CollPipelinedOps", "CollLaneAcquires", "CollLaneWaits", "ReservedTagRejects")])
    if coll_rows:
        print("collectives (per rank):")
        print(render_table(
            ["rank", "ops", "rounds", "segs", "binomial", "rsag", "pipelined",
             "lane-acq", "lane-wait", "tag-rejects"],
            coll_rows))
        print()

    # --- requirements ---
    failures = []
    by_name = {c["name"]: c for c in doc["contention"]}
    for want in require_wait:
        c = by_name.get(want)
        if c is None:
            failures.append(f"required lock class {want!r} never interned")
        elif int(c["wait_ns"]) <= 0:
            failures.append(f"lock class {want!r} recorded zero wait time")
    if failures:
        print()
        for msg in failures:
            print(f"obs_report: FAIL: {msg}", file=sys.stderr)
        raise SystemExit(1)
    if require_wait:
        print(f"\nobs_report: wait-time attribution OK for: {', '.join(require_wait)}")


# -------------------------------------------------------------------- diff


def stalls_between(before: dict, after: dict) -> list[str]:
    """What did not move between two snapshots of one universe."""
    out = []
    earlier = {rank["rank"]: rank for rank in before["ranks"]}
    for rank in after["ranks"]:
        prev = earlier.get(rank["rank"])
        if prev is None:
            continue
        r = rank["rank"]
        # Consumption, not arrival: a frozen consumer keeps its count while
        # its producers may still push, and a draining one advances it
        # however many packets arrive.
        prev_cris = {inst["id"]: inst for inst in prev["instances"]}
        for inst in rank["instances"]:
            old = prev_cris.get(inst["id"])
            if old is None or old["rx_backlog"] == 0 or inst["rx_backlog"] == 0:
                continue
            consumed = inst["delivered"] - inst["rx_backlog"]
            if consumed <= old["delivered"] - old["rx_backlog"]:
                out.append(f"r{r}.cri{inst['id']}: rx_backlog {old['rx_backlog']} -> "
                           f"{inst['rx_backlog']}, delivered {old['delivered']} -> "
                           f"{inst['delivered']}: nothing consumed between dumps")
        # The same transfer has the same birth time in both dumps.
        if prev["rndv_pending"] == 0 or rank["rndv_pending"] == 0:
            continue
        born = after["dumped_at_ns"] - rank["rndv_oldest_age_ns"]
        if (born == before["dumped_at_ns"] - prev["rndv_oldest_age_ns"]
                and rank["rndv_oldest_age_ns"] > prev["rndv_oldest_age_ns"]):
            out.append(f"r{r}: oldest rendezvous pending for "
                       f"{fmt_ns(rank['rndv_oldest_age_ns'])} "
                       f"({fmt_ns(prev['rndv_oldest_age_ns'])} in the earlier dump), "
                       f"{rank['rndv_pending']} pending")
    return out


def diff_obs(before_path: str, after_path: str) -> None:
    before = load_snapshot(before_path)
    after = load_snapshot(after_path)
    if after["dumped_at_ns"] <= before["dumped_at_ns"]:
        fail(f"{after_path} was not dumped after {before_path}")
    stalls = stalls_between(before, after)
    elapsed = fmt_ns(after["dumped_at_ns"] - before["dumped_at_ns"])
    for msg in stalls:
        print(f"obs_report: STALL: {msg}", file=sys.stderr)
    if stalls:
        raise SystemExit(1)
    print(f"obs_report: diff OK — every backlog drained or moved in {elapsed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--validate", metavar="TRACE_JSON",
                        help="validate an exported Chrome trace file")
    parser.add_argument("--report", metavar="OBS_JSON",
                        help="render a dump_observability() snapshot")
    parser.add_argument("--require-wait", action="append", default=[],
                        metavar="CLASS",
                        help="with --report: fail unless CLASS has wait_ns > 0")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE_JSON", "AFTER_JSON"),
                        help="name what did not move between two snapshots")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    if not args.validate and not args.report and not args.diff:
        parser.print_usage(sys.stderr)
        return 2
    if args.require_wait and not args.report:
        print("obs_report: --require-wait needs --report", file=sys.stderr)
        return 2

    if args.validate:
        validate_trace(args.validate, args.verbose)
    if args.report:
        report_obs(args.report, args.require_wait)
    if args.diff:
        diff_obs(*args.diff)
    return 0


if __name__ == "__main__":
    sys.exit(main())
