#!/usr/bin/env python3
"""Compare two BENCH_<name>.json files (see bench_to_json.py) and fail on
regressions.

A series regresses when its current real_time_ns exceeds the baseline by
more than --threshold (default 15%). Series present on only one side are
reported but never fail the comparison (benches come and go across PRs).

Timings from different hosts are not comparable: a baseline recorded on
one CPU measures time-slicing where a multi-core host measures contention,
and a debug build is not a release one. So the two files' host
fingerprints (num_cpus, fairmpi_build_type, mhz_per_cpu) must match, or
the comparison is refused. fairmpi_build_type is the engine's CMake build
type, which bench_to_json.py records; Google Benchmark's own
library_build_type says nothing about the code under test.

Microbench timings on shared CI hosts are noisy; the 15% bar plus the
non-gating CI wiring (.github/workflows/ci.yml) make this a report, not a
merge blocker — run it locally on a quiet machine when it flags something.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]

Exit status: 0 when no series regressed, 1 when one did, 2 when the host
fingerprints differ (nothing is compared).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    data = json.loads(path.read_text())
    if "series" not in data:
        raise SystemExit(f"bench_compare: {path} is not a bench_to_json file")
    return data


# Host fields that must agree before two files' timings mean anything
# side by side.
FINGERPRINT = ("num_cpus", "fairmpi_build_type", "mhz_per_cpu")


def host_mismatches(base: dict, cur: dict) -> list[tuple[str, object, object]]:
    bh, ch = base.get("host", {}), cur.get("host", {})
    return [(k, bh.get(k), ch.get(k)) for k in FINGERPRINT if bh.get(k) != ch.get(k)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated slowdown fraction (default 0.15)")
    args = ap.parse_args()

    base_file, cur_file = load(args.baseline), load(args.current)
    mismatches = host_mismatches(base_file, cur_file)
    if mismatches:
        print("bench_compare: refusing to compare timings from different hosts:",
              file=sys.stderr)
        for key, b, c in mismatches:
            print(f"  {key}: baseline {b!r}, current {c!r}", file=sys.stderr)
        print("  re-record the baseline on this host (tools/bench_to_json.py)",
              file=sys.stderr)
        raise SystemExit(2)
    base = base_file["series"]
    cur = cur_file["series"]

    regressions = []
    rows = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            rows.append((name, None, cur[name]["real_time_ns"], "new"))
            continue
        if name not in cur:
            rows.append((name, base[name]["real_time_ns"], None, "removed"))
            continue
        b = base[name]["real_time_ns"]
        c = cur[name]["real_time_ns"]
        change = (c - b) / b if b else 0.0
        verdict = "ok"
        if change > args.threshold:
            verdict = "REGRESSION"
            regressions.append((name, change))
        elif change < -args.threshold:
            verdict = "improved"
        rows.append((name, b, c, f"{change:+.1%} {verdict}"))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  change")
    for name, b, c, note in rows:
        bs = f"{b:.1f}ns" if b is not None else "-"
        cs = f"{c:.1f}ns" if c is not None else "-"
        print(f"{name:<{width}}  {bs:>12}  {cs:>12}  {note}")

    if regressions:
        print(f"\nbench_compare: {len(regressions)} series regressed beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, change in regressions:
            print(f"  {name}: {change:+.1%}", file=sys.stderr)
        raise SystemExit(1)
    print("\nbench_compare: no regressions")


if __name__ == "__main__":
    main()
