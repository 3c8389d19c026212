#!/usr/bin/env python3
"""Golden pairs for `obs_report.py --diff`: the frozen pair (a CRI backlog
that nothing consumes, a rendezvous that only ages) must exit 1 naming
both, and the healthy pair (consumption moved, the pending transfer is a
newer one) must exit 0. A diff nobody has seen fail is indistinguishable
from one that cannot.

Usage: check_diff.py [--root REPO]   (exit 0 both behave, 1 otherwise)
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys


def run_diff(root: pathlib.Path, after: str) -> subprocess.CompletedProcess:
    fixtures = root / "tests" / "obs"
    return subprocess.run(
        [sys.executable, str(root / "tools" / "obs_report.py"), "--diff",
         str(fixtures / "diff_before.json"), str(fixtures / after)],
        capture_output=True, text=True, check=False)


def main() -> int:
    here = pathlib.Path(__file__).resolve()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=here.parents[2])
    root = parser.parse_args().root

    failures = []
    frozen = run_diff(root, "diff_after_frozen.json")
    if frozen.returncode != 1:
        failures.append(f"frozen pair exited {frozen.returncode}, want 1")
    for want in ("STALL: r1.cri0:", "STALL: r0: oldest rendezvous"):
        if want not in frozen.stderr:
            failures.append(f"frozen pair did not name {want!r}")
    healthy = run_diff(root, "diff_after_healthy.json")
    if healthy.returncode != 0:
        failures.append(f"healthy pair exited {healthy.returncode}, want 0: "
                        f"{healthy.stderr.strip()}")
    if failures:
        for msg in failures:
            print(f"check_diff: FAIL: {msg}", file=sys.stderr)
        print(frozen.stderr, file=sys.stderr)
        return 1
    print("check_diff: OK — frozen pair flagged, healthy pair clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
