#!/usr/bin/env python3
"""Concurrency lint for fairmpi.

Style-level rules the compiler cannot express, each targeting a bug class the
multithreaded-MPI papers report losing days to:

  bare-lock      .lock()/.unlock() statements outside RAII. Every acquisition
                 must be scoped (fairmpi::LockGuard), or sit within a few
                 lines of an adopting guard (the timed-acquire idiom:
                 LockGuard g(lock, adopt_lock)), or carry an allow
                 annotation.

  relaxed-sync   A memory_order_relaxed load gating a branch decision with no
                 acquire operation in sight. Relaxed loads are fine as
                 fast-path gates *when* the actual synchronization (an
                 acquire exchange/CAS) is adjacent; a bare relaxed gate is
                 how "works on x86" visibility bugs ship. Adjacency is
                 measured in *statements* (via lock_graph's statement
                 grouping), so a CAS wrapped over several physical lines, or
                 separated from its gate by comment lines, still counts as
                 adjacent — and a gate five short lines away from an
                 unrelated acquire no longer sneaks through.

  unranked-mutex A mutex-like member (Spinlock / TicketLock / std::mutex
                 family) declared raw instead of through RankedLock<T>, i.e.
                 invisible to the lock-rank validator.

  hotpath-alloc  An allocation (`new`, make_unique/make_shared, malloc) or a
                 node-allocating container call (emplace / insert / resize /
                 reserve) inside a file declared allocation-free by policy
                 (HOTPATH_FILES — the matching engine, progress engine,
                 sender, and the pool/ring primitives they build on). These
                 paths run under engine locks at or below rank kMatch, where
                 a malloc is both a latency cliff and a lock-hierarchy
                 hazard (§II-C). Setup-time and deliberate slow-path
                 allocations stay, annotated. push_back/emplace_back are
                 deliberately NOT matched: the hot path's intrusive lists
                 share those names and never allocate; growing a std
                 container on these paths via emplace/insert/resize/reserve
                 is still caught.

  no-tsa-hotpath FAIRMPI_NO_TSA in a hot-path file. The tsa preset compiles
                 the engine with -Werror=thread-safety; opting a hot-path
                 function out of the analysis would silently re-open the
                 hole the preset exists to close. The only sanctioned
                 NO_TSA bodies are the RankedLock forwarding shims in
                 lockcheck.hpp (an exempt file).

  allow-without-reason
                 A `lint: allow(<rule>)` annotation with no reason text
                 after the closing parenthesis. The reason is part of the
                 syntax, not culture: a suppression that does not say WHY it
                 is safe is itself a finding, and a hard failure.

Suppression: add `lint: allow(<rule>) <reason>` in a comment on the offending
line or the line above. `--allow-report` lists every suppression in the tree
with its reason, for review sweeps.

Scope: include/ and src/. Tests and benches construct adversarial lock states
on purpose (holding a lock to force try_lock failure, benchmarking a bare
primitive) and are exempt.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
try:
    from lock_graph import statement_spans, strip_comments
except ImportError:  # standalone copy of the linter: fall back to line windows
    statement_spans = None
    strip_comments = None

SCAN_DIRS = ("include", "src")
CXX_SUFFIXES = {".hpp", ".h", ".cpp", ".cc", ".cxx"}

# Files that implement the primitives / the validator itself.
EXEMPT_FILES = {
    "include/fairmpi/common/spinlock.hpp",
    "include/fairmpi/debug/lockcheck.hpp",
    "include/fairmpi/debug/thread_safety.hpp",
    "src/debug/lockcheck.cpp",
}

ALLOW_RE = re.compile(r"lint:\s*allow\((?P<rules>[\w,\s-]+)\)(?P<reason>[^\n]*)")

# `foo.lock();` / `foo->unlock();` / `inst.lock().lock();` as a whole
# statement. Expression-statements only: declarations like
# `LockGuard guard(lock);` do not match.
BARE_LOCK_RE = re.compile(r"^\s*[\w\.\->\(\)\[\]:]*(?:\.|->)(?:lock|unlock)\(\s*\)\s*;")
# Both spellings: std::adopt_lock (pre-TSA guards) and fairmpi::adopt_lock /
# bare adopt_lock (fairmpi::LockGuard's adopting constructor).
ADOPT_RE = re.compile(r"\badopt_lock\b")
ADOPT_WINDOW = 4  # lines around a bare lock in which an adopting guard counts

RELAXED_LOAD_RE = re.compile(r"\.load\(std::memory_order_relaxed\)")
BRANCH_RE = re.compile(r"^\s*(?:\}?\s*else\s+)?(?:if|while)\s*\(|\breturn\b.*\?")
ACQUIRE_RE = re.compile(r"memory_order_acq|__tsan_acquire|std::atomic_thread_fence")
ACQUIRE_WINDOW = 4  # line fallback when statement grouping is unavailable
ACQUIRE_STMTS_AFTER = 2  # statements after the gate in which an acquire counts
ACQUIRE_STMTS_BEFORE = 1  # ... and before (acquire-then-recheck idiom)

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:fairmpi::)?"
    r"(?:Spinlock|TicketLock|std::(?:recursive_|shared_|timed_)?mutex)\s+"
    r"\w+\s*(?:;|\{|=)"
)
MUTEX_ARRAY_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::array<\s*(?:fairmpi::)?(?:Spinlock|TicketLock)\b"
)

NO_TSA_RE = re.compile(r"\bFAIRMPI_NO_TSA\b")

# Allocation-free-by-policy files (relative to the repo root): the message
# hot path and the primitives it runs on. Steady state must recycle through
# SlabPool / PayloadPool / intrusive lists; every allocation in these files
# is either setup-time or a documented slow path and carries an allow.
HOTPATH_FILES = {
    "src/match/match_engine.cpp",
    "include/fairmpi/match/match_engine.hpp",
    "src/progress/progress.cpp",
    "src/p2p/sender.cpp",
    "src/fabric/wire.cpp",
    "include/fairmpi/common/slab_pool.hpp",
    "include/fairmpi/common/mpsc_ring.hpp",
    "include/fairmpi/common/intrusive_list.hpp",
    # Reliability/fault/watchdog paths run from progress() and the send
    # path; their allocations must be gated on fault injection being on
    # (or annotated as cold outcomes).
    "src/p2p/reliability.cpp",
    "include/fairmpi/p2p/reliability.hpp",
    "src/progress/watchdog.cpp",
    "src/fabric/faults.cpp",
    # Counter and observability hooks run on every message, inside every
    # lock acquisition and every CRI drain; the only allocation allowed is
    # the annotated one-time registry construction in contention.cpp (shards
    # are allocated on first touch, out of line in src/spc/spc.cpp).
    "src/obs/contention.cpp",
    "include/fairmpi/obs/contention.hpp",
    "include/fairmpi/spc/spc.hpp",
    # The lock-free injection path (DESIGN.md §5f): the submission funnel,
    # the per-source RX lanes, the producer backoff, and the inject/flush
    # logic itself all run per-packet. Everything here must be setup-time
    # (ctor, first-bind) or annotated.
    "include/fairmpi/fabric/submit_ring.hpp",
    "include/fairmpi/common/spsc_ring.hpp",
    "include/fairmpi/common/backoff.hpp",
    "include/fairmpi/fabric/wire.hpp",
    "include/fairmpi/cri/cri.hpp",
    "src/cri/cri.cpp",
    # Overload control (DESIGN.md §5h): the admission checks run per-packet
    # under the match lock and per-injection on the send path; the governor
    # runs inside every progress visit. Nothing here may allocate.
    "src/overload/overload.cpp",
    "include/fairmpi/overload/overload.hpp",
}

HOTPATH_ALLOC_RE = re.compile(
    r"(?:^|[^\w.])new\b(?!\s*\()"  # `new T`, `new (place) T` handled below
    r"|\bnew\s*\("
    r"|\bstd::make_(?:unique|shared)\b"
    r"|\bmalloc\s*\("
    r"|\.(?:emplace|insert|resize|reserve)\s*\("
)
# Placement new recycles pool storage — it is the allocation-free idiom, not
# an allocation. `::new (p) T(...)` / `new (p) T(...)`.
PLACEMENT_NEW_RE = re.compile(r"(?:::)?new\s*\(\s*[a-zA-Z_]\w*\s*\)")


class Finding:
    def __init__(self, path: pathlib.Path, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


class Allow:
    def __init__(self, path: pathlib.Path, line_no: int, rules: list[str],
                 reason: str):
        self.path = path
        self.line_no = line_no
        self.rules = rules
        self.reason = reason


def parse_allow(text: str):
    """Return (rules, reason) for an allow annotation in `text`, else None."""
    m = ALLOW_RE.search(text)
    if not m:
        return None
    rules = [r.strip() for r in m.group("rules").split(",") if r.strip()]
    reason = m.group("reason").strip().rstrip("*/").strip()
    return rules, reason


def allows(line: str, prev_line: str, rule: str) -> bool:
    """A finding is suppressed only by an allow that names its rule AND
    carries a reason; a reasonless allow suppresses nothing (and is itself
    reported as allow-without-reason)."""
    for text in (line, prev_line):
        parsed = parse_allow(text)
        if parsed and rule in parsed[0] and parsed[1]:
            return True
    return False


def window(lines: list[str], idx: int, radius: int) -> str:
    lo = max(0, idx - radius)
    hi = min(len(lines), idx + radius + 1)
    return "\n".join(lines[lo:hi])


def acquire_adjacent(code_lines: list[str], spans, line_to_stmt, idx: int) -> bool:
    """Statement-level adjacency: an acquire in the gate's own statement, the
    statement before it, or the ACQUIRE_STMTS_AFTER statements after it."""
    if spans is None:
        return bool(ACQUIRE_RE.search(window(code_lines, idx, ACQUIRE_WINDOW)))
    si = line_to_stmt.get(idx)
    if si is None:
        return bool(ACQUIRE_RE.search(window(code_lines, idx, ACQUIRE_WINDOW)))
    lo = max(0, si - ACQUIRE_STMTS_BEFORE)
    hi = min(len(spans), si + ACQUIRE_STMTS_AFTER + 1)
    text = "\n".join(
        code_lines[spans[s][0]: spans[s][1] + 1][j]
        for s in range(lo, hi)
        for j in range(spans[s][1] - spans[s][0] + 1)
    )
    return bool(ACQUIRE_RE.search(text))


def lint_file(path: pathlib.Path, rel: str, allow_log: list[Allow]) -> list[Finding]:
    findings: list[Finding] = []
    raw = path.read_text(encoding="utf-8", errors="replace")
    lines = raw.splitlines()

    if strip_comments is not None:
        code_lines = strip_comments(raw).splitlines()
        spans = statement_spans(code_lines)
        line_to_stmt = {}
        for si, (lo, hi) in enumerate(spans):
            for ln in range(lo, hi + 1):
                line_to_stmt[ln] = si
    else:
        code_lines = None
        spans = None
        line_to_stmt = {}

    for i, line in enumerate(lines):
        prev = lines[i - 1] if i > 0 else ""
        if code_lines is not None and i < len(code_lines):
            code = code_lines[i]
        else:
            code = line.split("//", 1)[0] if not line.lstrip().startswith("//") else ""

        parsed = parse_allow(line)
        if parsed is not None:
            rules, reason = parsed
            allow_log.append(Allow(path, i + 1, rules, reason))
            if not reason:
                findings.append(
                    Finding(
                        path, i + 1, "allow-without-reason",
                        "allow({}) has no reason: state WHY the suppression "
                        "is safe after the closing parenthesis".format(
                            ",".join(rules)),
                    )
                )

        if BARE_LOCK_RE.match(code):
            if not allows(line, prev, "bare-lock") and not ADOPT_RE.search(
                window(lines, i, ADOPT_WINDOW)
            ):
                findings.append(
                    Finding(
                        path, i + 1, "bare-lock",
                        "bare lock()/unlock() statement: use fairmpi::LockGuard "
                        "(or adopt within {} lines, or annotate)".format(ADOPT_WINDOW),
                    )
                )

        if RELAXED_LOAD_RE.search(code) and BRANCH_RE.match(code):
            adjacent = acquire_adjacent(
                code_lines if code_lines is not None else lines,
                spans, line_to_stmt, i)
            if not allows(line, prev, "relaxed-sync") and not adjacent:
                findings.append(
                    Finding(
                        path, i + 1, "relaxed-sync",
                        "relaxed load gates a branch with no adjacent acquire: "
                        "pair with an acquire or annotate with the reason it is safe",
                    )
                )

        if rel.endswith((".hpp", ".h")) and (
            MUTEX_MEMBER_RE.match(code) or MUTEX_ARRAY_RE.match(code)
        ):
            if not allows(line, prev, "unranked-mutex"):
                findings.append(
                    Finding(
                        path, i + 1, "unranked-mutex",
                        "raw mutex member is invisible to the lock-rank validator: "
                        "declare it as RankedLock<T> with a LockRank",
                    )
                )

        is_preproc = code.lstrip().startswith("#")  # e.g. `#include <new>`
        if rel in HOTPATH_FILES and not is_preproc and HOTPATH_ALLOC_RE.search(code):
            if not PLACEMENT_NEW_RE.search(code) and not allows(
                line, prev, "hotpath-alloc"
            ):
                findings.append(
                    Finding(
                        path, i + 1, "hotpath-alloc",
                        "allocation in an allocation-free hot-path file: recycle "
                        "through SlabPool/PayloadPool or annotate a setup/slow path",
                    )
                )

        if rel in HOTPATH_FILES and NO_TSA_RE.search(code):
            if not allows(line, prev, "no-tsa-hotpath"):
                findings.append(
                    Finding(
                        path, i + 1, "no-tsa-hotpath",
                        "FAIRMPI_NO_TSA opts a hot-path function out of "
                        "-Werror=thread-safety: restructure so the analysis "
                        "can see the locking instead",
                    )
                )
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--allow-report", action="store_true",
                        help="list every lint: allow() suppression with its "
                             "reason instead of linting")
    parser.add_argument("paths", nargs="*", help="restrict to these files")
    args = parser.parse_args()

    root = pathlib.Path(args.root).resolve()
    if not root.is_dir():
        print(f"lint_concurrency: no such root: {root}", file=sys.stderr)
        return 2

    if args.paths:
        files = [pathlib.Path(p).resolve() for p in args.paths]
    else:
        files = [
            f
            for d in SCAN_DIRS
            for f in sorted((root / d).rglob("*"))
            if f.suffix in CXX_SUFFIXES
        ]

    findings: list[Finding] = []
    allow_log: list[Allow] = []
    for f in files:
        rel = f.relative_to(root).as_posix() if f.is_relative_to(root) else f.as_posix()
        if rel in EXEMPT_FILES:
            continue
        findings.extend(lint_file(f, rel, allow_log))

    if args.allow_report:
        for a in allow_log:
            reason = a.reason if a.reason else "<MISSING REASON>"
            print(f"{a.path}:{a.line_no}: allow({','.join(a.rules)}) {reason}")
        n_bad = sum(1 for a in allow_log if not a.reason)
        print(f"lint_concurrency: {len(allow_log)} suppression(s), "
              f"{n_bad} without a reason", file=sys.stderr)
        return 1 if n_bad else 0

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_concurrency: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_concurrency: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
