#!/usr/bin/env python3
"""Drift guard: obs_report.py's EXPECTED_EVENT_NAMES must equal the names
trace::event_name() can emit (src/trace/trace.cpp), minus the "None"
placeholder. A name missing from the set makes `obs_report.py --validate`
reject every trace carrying that event.

Usage: check_event_names.py [--root REPO]   (exit 0 equal, 1 drift)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys


def main() -> int:
    here = pathlib.Path(__file__).resolve()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=here.parents[2])
    root = parser.parse_args().root

    sys.path.insert(0, str(root / "tools"))
    import obs_report  # noqa: E402  (path set just above)

    source = (root / "src" / "trace" / "trace.cpp").read_text(encoding="utf-8")
    emitted = set(re.findall(r'case Event::k\w+:\s*return "([^"]+)";', source))
    emitted.discard("None")
    if not emitted:
        print("check_event_names: no event names parsed from trace.cpp", file=sys.stderr)
        return 1

    expected = set(obs_report.EXPECTED_EVENT_NAMES)
    missing = sorted(emitted - expected)
    stale = sorted(expected - emitted)
    if missing or stale:
        print(f"check_event_names: FAIL: missing from EXPECTED_EVENT_NAMES: {missing}; "
              f"not emitted by trace.cpp: {stale}", file=sys.stderr)
        return 1
    print(f"check_event_names: OK — {len(emitted)} event names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
