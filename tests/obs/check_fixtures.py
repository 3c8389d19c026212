#!/usr/bin/env python3
"""Golden fixtures for obs_report.py's guards. Every fixture under
tests/obs/fixtures/ embeds the run it takes part in and its outcome:

  "_expect": {"args": [...], "exit": N, "stderr": [S, ...]}

"{self}" in args is the fixture itself, other file names are siblings.
This runner asserts obs_report.py exits N with every S in its stderr. The
planted fixtures must fail: an event name outside the trace's own schema,
a spc_total that lacks one schema counter, a frozen CRI backlog and an
ageing rendezvous between two dumps (--diff). The unplanted ones must pass.
A guard nobody has seen fail is indistinguishable from one that cannot.

Usage: check_fixtures.py [--root REPO] --select MODE...   (MODE: validate,
report, diff; exit 0 all selected fixtures behave, 1 otherwise)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys


def main() -> int:
    here = pathlib.Path(__file__).resolve()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=here.parents[2])
    parser.add_argument("--select", nargs="+", required=True, metavar="MODE")
    args = parser.parse_args()
    fixtures = args.root / "tests" / "obs" / "fixtures"

    failures = []
    exits = set()
    for path in sorted(fixtures.glob("*.json")):
        expect = json.loads(path.read_text(encoding="utf-8"))["_expect"]
        if expect["args"][0].lstrip("-") not in args.select:
            continue
        cmd = [str(path) if a == "{self}" else a if a.startswith("--") else str(fixtures / a)
               for a in expect["args"]]
        run = subprocess.run([sys.executable, str(args.root / "tools" / "obs_report.py"), *cmd],
                             capture_output=True, text=True, check=False)
        exits.add(expect["exit"])
        wrong = [f"stderr lacks {s!r}" for s in expect["stderr"] if s not in run.stderr]
        if run.returncode != expect["exit"]:
            wrong.append(f"exited {run.returncode}, want {expect['exit']}")
        failures += [f"{path.name}: {msg}\n{run.stderr}" for msg in wrong]
    if exits != {0, 1}:
        failures.append(f"need planted and unplanted fixtures, got exits {sorted(exits)}")
    for msg in failures:
        print(f"check_fixtures: FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_fixtures: OK — {' '.join(args.select)} fixtures behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
