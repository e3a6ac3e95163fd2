#!/usr/bin/env python3
"""End-to-end benchmark of tbc: builds the benchmark from source, then runs
workloads, each in its own process.

One workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload warm_restart --seed 1 --seconds 20 --trace 0

prints a human-readable summary on stderr and, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (spans are kept in .bench_out/).

Every workload, one after the other:

    python3 perfbench/run.py --all [--trace 0|1] [--seed N] [--seconds S]
    python3 perfbench/run.py --all --short      # seconds per workload, for tests

prints every metric by name with its unit, plus operations attempted and
failed, and exits non-zero if any run was incorrect. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_restart", "compile_mix", "cli_sdd")
RUN_LIMIT_S = 170  # a run must end within 180 s after the build
BUILD_LIMIT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", bdir, "--target", "tbc_perfbench",
                     "-j", jobs]):
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(bdir, "tbc_perfbench")


def run_workload(binary, workload, seed, seconds, trace, short, limit_s):
    """Runs the oracle and the workload, each in a process of its own.

    Returns (result, details) or exits on failure."""
    deadline = time.monotonic() + limit_s
    work = os.path.join(ROOT, ".bench_run",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    oracle = os.path.join(work, "oracle.txt")
    common = ["--workload", workload, "--seed", str(seed), "--oracle", oracle]
    try:
        o = subprocess.run([binary, "oracle"] + common,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=max(1, deadline - time.monotonic()))
        if o.returncode != 0:
            sys.stderr.write(o.stderr)
            fail("oracle for %s exited with %d" % (workload, o.returncode))
        cmd = [binary, "run"] + common + [
            "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
            "--workdir", os.path.join(work, "run"),
            "--spans", os.path.join(out_dir, "spans-%s-%d.jsonl" % (workload, seed))]
        if short:
            cmd.append("--short")
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, limit_s))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("%s exited with %d" % (workload, p.returncode))
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    result = json.loads(lines[-1])
    details = {}
    for line in p.stderr.splitlines():
        if line.startswith("perfbench-details: "):
            details = json.loads(line[len("perfbench-details: "):])
    with open(os.path.join(out_dir, "details-%s-%d-trace%d.json"
                           % (workload, seed, 1 if trace else 0)), "w") as f:
        json.dump(details, f)
    return result, details


def describe(workload, seed, seconds, trace, result, details):
    lines = ["== %s (seed %d, %g s, trace %d): correct %s, attempted %d, failed %d"
             % (workload, seed, seconds, trace, str(result["correct"]).lower(),
                result["attempted"], result["failed"])]
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        lines.append("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for reason in details.get("reasons", []):
        lines.append("  failure: " + reason)
    return "\n".join(lines)


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small inputs and short phases (benchmark self-tests)")
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.short else default_seconds()
    if not 0 < seconds <= 60:
        ap.error("--seconds must be in (0, 60]")

    binary = build()
    workloads = WORKLOADS if args.all else (args.workload,)
    results = {}
    for w in workloads:
        result, details = run_workload(binary, w, args.seed, seconds,
                                       args.trace == 1, args.short, RUN_LIMIT_S)
        results[w] = result
        text = describe(w, args.seed, seconds, args.trace, result, details)
        print(text, file=sys.stdout if args.all else sys.stderr)
    if args.all:
        print(json.dumps(results))
        sys.exit(0 if all(r["correct"] for r in results.values()) else 3)
    print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
