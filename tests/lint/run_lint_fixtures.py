#!/usr/bin/env python3
"""Golden-fixture runner: proves the lint and lock-graph gates actually fire.

A static gate that has never been seen to fail is indistinguishable from a
gate that cannot fail. Every fixture under tests/lint/fixtures/ embeds its
expected outcome as markers, and this runner asserts the tools produce
EXACTLY that outcome — no missing findings, no extras, no drifted line
numbers:

  // expect: <rule> @ <line>   the tool must report <rule> at <line>
  // expect: clean             the tool must report nothing for this file

Three suites:

  rules/         each file linted individually (lint_concurrency.py with the
                 repo root, explicit path), exercising bare-lock,
                 relaxed-sync (incl. the statement-level adjacency upgrade),
                 unranked-mutex, and allow-without-reason.

  hotpath_tree/  a miniature source tree whose files pose as hot-path files
                 (path-keyed rules), linted with --root at the tree so
                 hotpath-alloc, hotpath-clock and no-tsa-hotpath fire.

  lockgraph_*/   miniature trees fed to lock_graph.py, one producing a
                 lock-order cycle (same-rank locks taken in both orders) and
                 one a rank inversion — each must exit 1 with that exact
                 violation kind.

tsa/ is NOT run here: its fixture is a GUARDED_BY violation that must fail
to *compile* under clang -Werror=thread-safety, which only CI has a clang
for (see .github/workflows/ci.yml).

Exit status: 0 all fixtures behave, 1 any deviation, 2 setup error.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
FIXTURES = HERE / "fixtures"
TOOLS = REPO / "tools"

EXPECT_RE = re.compile(r"//\s*expect:\s*(?P<rule>[\w-]+)(?:\s*@\s*(?P<line>\d+))?")
FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"FAIL: {msg}")


def expectations(path: pathlib.Path) -> set[tuple[str, int]]:
    """Parse expect markers; 'clean' means the empty set (and must be the
    only marker in the file)."""
    expected: set[tuple[str, int]] = set()
    clean = False
    for m in EXPECT_RE.finditer(path.read_text()):
        if m.group("rule") == "clean":
            clean = True
        else:
            if m.group("line") is None:
                raise SystemExit(f"{path}: expect marker without '@ <line>'")
            expected.add((m.group("rule"), int(m.group("line"))))
    if clean and expected:
        raise SystemExit(f"{path}: mixes 'expect: clean' with findings")
    if not clean and not expected:
        raise SystemExit(f"{path}: no expect markers at all")
    return expected


def run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *cmd], capture_output=True, text=True, cwd=REPO
    )


def parse_findings(stdout: str) -> set[tuple[str, str, int]]:
    out = set()
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            out.add((m.group("path"), m.group("rule"), int(m.group("line"))))
    return out


def check_lint(name: str, cmd: list[str],
               expected_by_file: dict[pathlib.Path, set[tuple[str, int]]]) -> None:
    proc = run(cmd)
    # Findings print resolved paths; compare on (suffix-matched path, rule, line).
    got = parse_findings(proc.stdout)
    matched: set[tuple[str, str, int]] = set()
    n_expected = 0
    for path, exps in expected_by_file.items():
        for rule, line in exps:
            n_expected += 1
            hit = [g for g in got if g[0].endswith(path.name)
                   and g[1] == rule and g[2] == line]
            if hit:
                matched.update(hit)
            else:
                fail(f"{name}: missing expected [{rule}] @ {path.name}:{line}")
    for p, r, l in sorted(got - matched):
        fail(f"{name}: unexpected finding [{r}] {p}:{l}")
    want_exit = 1 if n_expected else 0
    if proc.returncode != want_exit:
        fail(f"{name}: exit {proc.returncode}, wanted {want_exit}\n"
             f"stdout: {proc.stdout}stderr: {proc.stderr}")


def suite_rules() -> None:
    rules_dir = FIXTURES / "rules"
    files = sorted(p for p in rules_dir.iterdir()
                   if p.suffix in (".cpp", ".hpp", ".h"))
    if not files:
        raise SystemExit(f"no fixtures under {rules_dir}")
    for f in files:
        check_lint(
            f"rules/{f.name}",
            [str(TOOLS / "lint_concurrency.py"), "--root", str(REPO), str(f)],
            {f: expectations(f)},
        )
    print(f"suite rules: {len(files)} fixtures")


def suite_hotpath() -> None:
    tree = FIXTURES / "hotpath_tree"
    files = sorted(tree.rglob("*.cpp")) + sorted(tree.rglob("*.hpp"))
    expected_by_file = {f: expectations(f) for f in files}
    check_lint(
        "hotpath_tree",
        [str(TOOLS / "lint_concurrency.py"), "--root", str(tree)],
        expected_by_file,
    )
    print(f"suite hotpath_tree: {len(files)} fixtures")


def suite_lockgraph() -> None:
    cases = {
        "lockgraph_cycle": "cycle",
        "lockgraph_inversion": "rank-inversion",
    }
    for tree_name, kind in cases.items():
        tree = FIXTURES / tree_name
        proc = run([str(TOOLS / "lock_graph.py"), "--root", str(tree)])
        if proc.returncode != 1:
            fail(f"{tree_name}: exit {proc.returncode}, wanted 1 (violations)\n"
                 f"stderr: {proc.stderr}")
            continue
        kinds = re.findall(r"VIOLATION \[([\w-]+)\]", proc.stderr)
        if kinds != [kind]:
            fail(f"{tree_name}: violation kinds {kinds}, wanted ['{kind}']\n"
                 f"stderr: {proc.stderr}")
    print(f"suite lockgraph: {len(cases)} fixtures")


def main() -> int:
    if not FIXTURES.is_dir():
        print(f"run_lint_fixtures: no such dir: {FIXTURES}", file=sys.stderr)
        return 2
    suite_rules()
    suite_hotpath()
    suite_lockgraph()
    if failures:
        print(f"run_lint_fixtures: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("run_lint_fixtures: all fixtures behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
