#!/usr/bin/env python3
"""perfbench: the repository benchmark of terracpp.

    python3 perfbench/run.py --workload compile|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check      # short mode, see self_check()
    python3 perfbench/run.py --repeat-check    # exact-repeat counters

Run from the root of a checkout. The first run configures and builds the
driver and the daemons it spawns from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check that the build is current. The driver's last stdout line is the
result, {"correct", "attempted", "failed", "metrics"}; this script passes
it through unchanged and exits non-zero when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "serve")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then brings the three targets up to date."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "terrad", "terrafleet"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return out


def source_rev():
    """git revision when there is one, else a hash of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        walk = os.walk(os.path.join(ROOT, top))
        for dirpath, dirnames, files in sorted(walk):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run_driver(out, workload, seed, seconds, trace, perturb=False):
    """Runs one measurement; returns (result, ledger line) or (None, None)."""
    cmd = [os.path.join(out, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--bin-dir",
           os.path.join(out, "terracpp", "tools"), "--rev", source_rev()]
    if perturb:
        cmd.append("--perturb")
    # Its own session, so a timeout or a SIGTERM to this script also stops
    # the daemons the driver spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum=None, frame=None):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if signum is not None:
            sys.exit(1)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stop()
        log("driver timed out")
        return None, None
    finally:
        signal.signal(signal.SIGTERM, previous)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log("driver failed with code %d" % proc.returncode)
        return None, None
    return json.loads(lines[-1]), lines[-2]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def self_check(out):
    """Short mode: every declared metric is printed with its unit, and a
    perturbed expected value is reported as a failure on every workload."""
    e2e, layer = declared_metrics()
    ok = True
    for workload in WORKLOADS:
        for trace, want in ((0, e2e), (1, layer)):
            res, _ = run_driver(out, workload, 1, 3, trace)
            if res is None:
                log("%s trace=%d: no result" % (workload, trace))
                ok = False
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                log("%s trace=%d: metrics differ from BENCHMARK.json: "
                    "missing %s, extra %s, unit mismatch %s" % (
                        workload, trace, sorted(set(want) - set(got)),
                        sorted(set(got) - set(want)),
                        sorted(k for k in got if k in want
                               and got[k] != want[k])))
                ok = False
            if not res["correct"] or res["failed"]:
                log("%s trace=%d: unperturbed run failed" % (workload, trace))
                ok = False
        log("%s: perturbed run, the failures it reports are expected"
            % workload)
        res, _ = run_driver(out, workload, 1, 3, 0, perturb=True)
        # One perturbed check per phase: three failures, all wrong values.
        if res is None or res["correct"] or res["failed"] < 3:
            log("%s: a perturbed expected value was not reported" % workload)
            ok = False
    log("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def repeat_check(out):
    """Two traced runs with one seed must agree exactly on every count-class
    metric; a count that does not repeat is reported as timing-class."""
    ok = True
    for workload in WORKLOADS:
        rows = []
        for _ in range(2):
            res, ledger = run_driver(out, workload, 7, 3, 1)
            if res is None:
                return 1
            rows.append({r["metric"]: r for r in json.loads(ledger)["ledger"]})
        for name, row in sorted(rows[0].items()):
            if row["class"] != "count":
                continue
            again = rows[1][name]["value"]
            same = row["value"] == again
            ok &= same
            log("%s %-32s %s %s" % (workload, name, "repeats" if same else
                                    "DOES NOT REPEAT (timing-class)",
                                    row["value"] if same else
                                    (row["value"], again)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--repeat-check", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.self_check or a.repeat_check):
        p.error("--workload is required")
    out = build()
    if out is None:
        return 2
    if a.self_check:
        return self_check(out)
    if a.repeat_check:
        return repeat_check(out)
    res, ledger = run_driver(out, a.workload, a.seed, a.seconds, a.trace)
    if res is None:
        return 1
    # The ledger row of every metric, then the result as the last line.
    print(ledger)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
