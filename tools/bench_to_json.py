#!/usr/bin/env python3
"""Run a Google-Benchmark binary and distill its output to BENCH_<name>.json.

The emitted file is the repo's perf-regression baseline format:

    {
      "name": "ablation_matching",
      "host": { ... benchmark context + platform metadata ... },
      "series": {
        "BM_MatchInOrder": {"real_time_ns": 136.2, "cpu_time_ns": 133.4,
                             "items_per_second": 7534640.0},
        ...
      }
    }

Only aggregate-free repetitions are kept (the default single run). Times are
normalized to nanoseconds so compare never has to care about time_unit.

host.fairmpi_build_type is the CMake build type of the fairmpi build the
binary came from (CMAKE_BUILD_TYPE in the nearest CMakeCache.txt above it),
not Google Benchmark's own library_build_type: the engine's optimization
level is what moves the timings.

Usage:
    bench_to_json.py --binary build/bench/bench_ablation_matching \
                     --out BENCH_ablation_matching.json [--name ablation_matching]
                     [-- extra benchmark args...]
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

_NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_benchmark(binary: Path, extra_args: list[str]) -> dict:
    cmd = [str(binary), "--benchmark_format=json", *extra_args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_to_json: {binary} exited {proc.returncode}")
    return json.loads(proc.stdout)


def fairmpi_build_type(binary: Path) -> str:
    """CMAKE_BUILD_TYPE of the build tree holding `binary` ("unknown" when
    no CMakeCache.txt above it names one)."""
    for d in binary.resolve().parents:
        cache = d / "CMakeCache.txt"
        if cache.is_file():
            for line in cache.read_text(errors="replace").splitlines():
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "unknown"
            return "unknown"
    return "unknown"


def distill(raw: dict) -> tuple[dict, dict]:
    host = dict(raw.get("context", {}))
    host["platform"] = platform.platform()
    host["machine"] = platform.machine()
    series = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = _NS_PER.get(b.get("time_unit", "ns"), 1.0)
        entry = {
            "real_time_ns": b["real_time"] * unit,
            "cpu_time_ns": b["cpu_time"] * unit,
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        if "bytes_per_second" in b:
            entry["bytes_per_second"] = b["bytes_per_second"]
        series[b["name"]] = entry
    return host, series


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--name", help="series name; default: binary name sans bench_ prefix")
    ap.add_argument("extra", nargs="*", help="extra args passed to the benchmark binary")
    args = ap.parse_args()

    name = args.name or args.binary.name.removeprefix("bench_")
    raw = run_benchmark(args.binary, args.extra)
    host, series = distill(raw)
    host["fairmpi_build_type"] = fairmpi_build_type(args.binary)
    if not series:
        raise SystemExit(f"bench_to_json: {args.binary} produced no benchmark series")
    args.out.write_text(
        json.dumps({"name": name, "host": host, "series": series}, indent=2,
                   sort_keys=True) + "\n")
    print(f"bench_to_json: wrote {args.out} ({len(series)} series)")


if __name__ == "__main__":
    main()
