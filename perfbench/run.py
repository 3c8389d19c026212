#!/usr/bin/env python3
"""End-to-end benchmark of the fairmpi engine: Multirate-pairwise and RMA-MT.

Builds perfbench_driver (this directory's CMake package, which compiles the
engine from ../src and ../include), runs one workload, checks its outputs and
prints every metric by name with its unit. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload mr-comm --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke        # all workloads, short, self-checking

--trace 0 reports the end-to-end metrics from one untraced process.
--trace 1 reports the per-layer metrics: counter deltas from an untraced
process, and spans, per-call latencies and lock contention from a second,
traced process (observability is process-global and sticky, so it never
shares a process with an untraced measurement).

Workloads (4 worker threads in one process, plus an idle timing thread):
  mr-shared    Multirate-pairwise, 0 B, 2 pairs, 2 CRIs, one shared communicator
  mr-comm      the same with one communicator per pair
  mr-reliable  mr-comm with 4 KiB payloads over the ack/retransmit protocol
  rma-put      RMA-MT, 4 threads x 4 CRIs, 8 B puts, 256 puts per flush
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mr-shared", "mr-comm", "mr-reliable", "rma-put"]
SPAN_NAMES = ["round", "isend", "irecv", "progress", "put", "flush"]
LOCK_CLASSES = ["match.engine", "cri.instance", "rank.rndv-control"]
WARMUP_S = 0.15  # the driver's warm-up before each timed region
DRIVER_TIMEOUT_S = 150

E2E_UNITS = {
    "msg_rate": "ops/s",
    "round_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=env)
        if proc.returncode != 0:
            print(proc.stdout[-4000:], file=sys.stderr)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def host_record(driver_out):
    """Everything a later number must match before it is compared."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for sub in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_online": os.cpu_count(),
        "cpu_model": model,
        "topology_domains": driver_out["topology_domains"],
        "compiler": driver_out["compiler"],
        "build_type": driver_out["build_type"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def run_driver(driver, workload, seed, seconds, reps, setup_reps, traced=False):
    rep_s = max(0.2, (seconds - reps * WARMUP_S - 0.5) / reps)
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--reps", str(reps),
           "--rep-seconds", "%.3f" % rep_s, "--setup-reps", str(setup_reps)]
    if traced:
        spans = os.path.join(build_dir(), "spans-%s.csv" % workload)
        cmd += ["--traced", "--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s driver timed out" % workload)
    try:
        res = json.loads(proc.stdout)
    except ValueError:
        raise SystemExit("perfbench: %s driver exited %d without a result"
                         % (workload, proc.returncode))
    res["exit_code"] = proc.returncode
    return res


def ratio(num, den):
    return num / den if den else 0.0


def e2e_metrics(r):
    return {
        "msg_rate": statistics.median(r["msg_rate"]),
        "round_p50_us": r["round_p50_ns"] / 1e3,
        "setup_s": statistics.median(r["setup_s"]),
        "peak_rss_mb": r["peak_rss_kib"] / 1024.0,
    }


def obs_wait_ns(traced, cls):
    total = 0
    for rep in traced["obs"]:
        for side, sign in (("after", 1), ("before", -1)):
            for c in rep[side]["contention"]:
                if c["name"] == cls:
                    total += sign * c["wait_ns"]
    return total


def layer_metrics(plain, traced):
    """Per-layer metrics with their units: counter deltas from the untraced
    process, timings and contention from the traced one."""
    c = plain["counters"]
    sent, recv = c["MessagesSent"], c["MessagesReceived"]
    spans = traced["spans"]
    m = {
        "cri.isend_p50_ns": (spans["isend"]["p50_ns"], "ns"),
        "cri.isend_p99_ns": (spans["isend"]["p99_ns"], "ns"),
        "cri.submit_queued_share": (ratio(c["SubmitQueued"], sent), "ratio"),
        "cri.trylock_fail_per_progress": (ratio(c["InstanceTrylockFail"], c["ProgressCalls"]),
                                          "1/call"),
        "fabric.backpressure_per_msg": (ratio(c["SendBackpressure"], sent), "1/msg"),
        "match.irecv_p50_ns": (spans["irecv"]["p50_ns"], "ns"),
        "match.irecv_p99_ns": (spans["irecv"]["p99_ns"], "ns"),
        "match.ns_per_msg": (ratio(c["MatchTimeNs"], recv), "ns/msg"),
        "match.attempts_per_msg": (ratio(c["MatchAttempts"], recv), "1/msg"),
        "match.oos_share": (ratio(c["OutOfSequence"], recv), "ratio"),
        "match.unexpected_share": (ratio(c["UnexpectedMessages"], recv), "ratio"),
        "progress.call_p50_ns": (spans["progress"]["p50_ns"], "ns"),
        "progress.call_p99_ns": (spans["progress"]["p99_ns"], "ns"),
        "progress.empty_share": (ratio(traced["progress_empty"], traced["progress_calls"]),
                                 "ratio"),
        "progress.wait_share": (ratio(traced["wait_ns"], traced["sampled_round_ns"]), "ratio"),
        "p2p.acks_per_msg": (ratio(c["AcksSent"], sent), "1/msg"),
        "p2p.retransmits_per_msg": (ratio(c["Retransmits"], sent), "1/msg"),
        "p2p.dup_discards": (c["DupDiscards"], "count"),
        "rma.put_p50_ns": (spans["put"]["p50_ns"], "ns"),
        "rma.put_p99_ns": (spans["put"]["p99_ns"], "ns"),
        "rma.flush_p50_us": (spans["flush"]["p50_ns"] / 1e3, "us"),
        "rma.flush_p99_us": (spans["flush"]["p99_ns"] / 1e3, "us"),
        "rma.flush_all_busy": (ratio(c["RmaFlushAllBusy"], c["RmaFlushes"]), "1/flush"),
        "round_p99_us": (plain["round_p99_ns"] / 1e3, "us"),
        "round.samples": (plain["round_samples"], "count"),
        "failed_share": (ratio(plain["failed"] + plain["sink_errors"] + traced["failed"]
                               + traced["sink_errors"],
                               plain["attempted"] + traced["attempted"]), "ratio"),
        "trace.overhead_share": (1.0 - ratio(statistics.median(traced["msg_rate"]),
                                             statistics.median(plain["msg_rate"])), "ratio"),
    }
    for cls in LOCK_CLASSES:
        m["obs.wait_share." + cls] = (ratio(obs_wait_ns(traced, cls),
                                            traced["thread_seconds"] * 1e9), "ratio")
    for name in SPAN_NAMES:
        m["span.%s.self_ns" % name] = (spans[name]["self_ns_mean"], "ns")
        m["span.%s.count" % name] = (spans[name]["count"], "count")
    return m


def binding_line(r):
    b = r["binding"]
    if r["workload"] == "rma-put":
        roles = ["thread%d" % t for t in range(4)]
    else:
        roles = ["sender0", "sender1", "receiver0", "receiver1"]
    return "binding %s: %s" % (r["workload"], ", ".join(
        "%s->cri%d" % (role, cri) for role, cri in zip(roles, b)))


def measure(driver, workload, seed, seconds, trace):
    """Run one workload; returns (results, metrics{name: (value, unit)})."""
    if trace:
        half = seconds / 2.0
        plain = run_driver(driver, workload, seed, half, reps=2, setup_reps=4)
        traced = run_driver(driver, workload, seed, half, reps=2, setup_reps=4, traced=True)
        return [plain, traced], layer_metrics(plain, traced)
    plain = run_driver(driver, workload, seed, seconds, reps=max(2, int(seconds * 0.8)),
                       setup_reps=64)
    m = e2e_metrics(plain)
    return [plain], {k: (v, E2E_UNITS[k]) for k, v in m.items()}


def report(workload, results, metrics):
    """Print host, binding, verification and every metric; returns the
    final result object."""
    print("host: " + json.dumps(host_record(results[0]), sort_keys=True))
    for r in results:
        print(binding_line(r) + (" (traced)" if r["traced"] else ""))
    correct = all(r["ok"] and r["exit_code"] == 0 for r in results)
    for r in results:
        if not r["ok"]:
            print("verification FAILED (%s): %s" % (workload, r["error"]))
        if r["sink_codes"]:
            print("typed errors (%s): %s" % (workload, json.dumps(r["sink_codes"])))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] + r["sink_errors"] for r in results)
    plain = results[0]
    print("workload %s seed %d: %d round samples, verification %s, failed %d of %d "
          "(failed_share %.3g)" % (workload, plain["seed"], plain["round_samples"],
                                   "passed" if correct else "FAILED", failed, attempted,
                                   ratio(failed, attempted)))
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.6g %s" % (name, value, unit))
    return {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(driver):
    """Every workload once, short: all named metrics printed, outputs
    verified, binding pinned, and each workload stresses its layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems, layers = [], {}
    for wl in WORKLOADS:
        for trace in (0, 1):
            results, metrics = measure(driver, wl, 1, 2.4, trace)
            final = report(wl, results, metrics)
            if not final["correct"]:
                problems.append("%s trace %d: verification or binding failed" % (wl, trace))
            if final["failed"]:
                problems.append("%s trace %d: %d operations failed" % (wl, trace, final["failed"]))
            missing = [n for n in names[trace] if n not in metrics]
            if missing:
                problems.append("%s trace %d: metrics not printed: %s" % (wl, trace, missing))
            if trace:
                layers[wl] = {k: v for k, (v, _) in metrics.items()}
    oos = layers["mr-shared"]["match.oos_share"], layers["mr-comm"]["match.oos_share"]
    if oos[0] < 10 * oos[1]:
        problems.append("match.oos_share mr-shared %.3g is not 10x mr-comm %.3g" % oos)
    for wl in WORKLOADS:
        acks = layers[wl]["p2p.acks_per_msg"]
        if (acks > 0) != (wl == "mr-reliable"):
            problems.append("p2p.acks_per_msg on %s is %.3g" % (wl, acks))
    for name in ("isend", "irecv", "progress"):
        if layers["rma-put"]["span.%s.count" % name]:
            problems.append("rma-put recorded %s spans" % name)
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check the benchmark itself")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    driver = build()
    if args.smoke:
        return smoke(driver)
    results, metrics = measure(driver, args.workload, args.seed, args.seconds, args.trace)
    final = report(args.workload, results, metrics)
    print(json.dumps(final))
    return 0 if final["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
