#!/usr/bin/env python3
"""Builds perfbench in Release against ../src and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree is .bench_build/perfbench;
traced runs write their per-layer metrics and span file to
.bench_build/perfbench/out. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. Any failed build,
correctness check or metric-name mismatch exits non-zero without it.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170  # a run must end within 180 s; the first build has its own limit
BUILD_LIMIT_S = 840
# An untraced run is this many processes, each measuring an equal share of
# --seconds with its own cold set-up; a metric is the median over them. On
# a shared host a process can run slow for seconds while another, at the
# same time, does not, so several short processes are steadier than one
# long one.
PROCESSES = 5
# The wall-clock metrics (throughput and client latency) come as one
# sample per timed epoch instead. Other guests of the host slow whole
# stretches of a run, by up to a third, and never speed it up, so the run
# reports the best tenth of its epochs: the 90th percentile of the pooled
# samples for a higher-is-better metric, the 10th for a lower-is-better
# one. A change to the program moves every epoch, and so this figure too.
GOOD_DECILE = {"higher": 8, "lower": 0}  # index into statistics.quantiles(n=10)

# The process-wide ThreadPool loses wakeups when more than one lane
# exists (see README.md); one lane keeps every run from hanging. Lifting
# the pin is a change to this benchmark, made once the pool is fixed.
PINNED_ENV = {"PIM_NUM_THREADS": "1"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """subprocess.run in its own process group, all of which is killed
    (and waited for) on timeout: make and the compilers included."""
    with subprocess.Popen(cmd, start_new_session=True, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            raise
        return subprocess.CompletedProcess(cmd, p.returncode, out)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            done = run(cmd, max(1.0, deadline - time.monotonic()),
                       stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {cmd[:2]} exited {done.returncode}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    build()
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    processes = 1 if args.trace == "1" else PROCESSES
    results = []
    for p in range(processes):
        # Each process gets its own input seed; seeds of one run stay
        # distinct from every other run's.
        seed = args.seed * processes + p
        cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds / processes), "--trace", args.trace,
               "--out", str(out_dir)]
        try:
            done = run(cmd, max(1.0, deadline - time.monotonic()), cwd=ROOT,
                       env={**os.environ, **PINNED_ENV}, stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} seed {seed} did not finish within {RUN_LIMIT_S} s", 3)
        if done.returncode != 0:
            fail(f"{args.workload} seed {seed} exited {done.returncode}", 3)
        try:
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            fail(f"{args.workload} seed {seed} printed no result line", 3)
    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    metrics = {n: {"value": statistics.median(r["metrics"][n]["value"] for r in results),
                   "unit": m["unit"]}
               for n, m in results[0]["metrics"].items()}
    for n, m in results[0]["samples"].items():
        pooled = [v for r in results for v in r["samples"][n]["values"]]
        if n not in better or len(pooled) < 2:
            fail(f"{n}: not declared in BENCHMARK.json, or fewer than 2 epochs", 3)
        metrics[n] = {"value": statistics.quantiles(pooled, n=10)[GOOD_DECILE[better[n]]],
                      "unit": m["unit"]}
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }

    # The printed metrics must be exactly the ones BENCHMARK.json declares,
    # with the same units.
    units = {m["name"]: m["unit"] for m in declared}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != units:
        wrong = sorted(set(got.items()) ^ set(units.items()))
        fail(f"metrics differ from BENCHMARK.json: {wrong}", 3)
    if args.trace == "1":
        (out_dir / f"{args.workload}-layers.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
