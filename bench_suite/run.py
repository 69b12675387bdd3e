#!/usr/bin/env python3
"""Build and run one bench_suite workload, check it, print its metrics.

    python3 bench_suite/run.py --workload fig15-b8 [--seed 42]
        [--seconds N] [--trace 0|1] [--out runs.jsonl]

Run from the root of a source checkout. Each call configures and builds
bench_suite/ (and the library it links) into .bench_build/, incrementally
after the first. The workload runs in its own process with
OMP_NUM_THREADS=1, for BENCHMARK.json's run_seconds unless --seconds is
given.

Prints every metric BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1) by name with its unit, then, as the
last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits nonzero when the build or the run fails, a metric is
missing, or any counted lane disagrees with its cross-check. --out
appends the result, its details and a machine fingerprint to a JSON-lines
file that compare.py reads.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_suite")
BINARY = os.path.join(BUILD, "bench_suite")
# Measured executions run on one thread: on a 4-vCPU shared VM the 4-thread
# wall time drifted 20-40% between runs while one thread held ~3%, and 4
# threads speed these workloads up by only 1.0-2.3x. Traced runs report
# the scaling (omp.speedup).
THREADS = 1
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", BUILD, "--target", "bench_suite",
                "-j", jobs]
    for cmd in (configure, compile_):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run to this JSON-lines file")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_file = os.path.join(
            BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: " + lines[-1])

    metrics = {}
    for m in wanted:
        v = raw["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {m['name']} missing or not a number")
        if not args.trace and v <= 0:
            fail(f"end-to-end metric {m['name']} read {v}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    print(f"{args.workload}: seed {args.seed}, {seconds} s, "
          f"{raw['threads']} threads, {raw['compiler']}, graph {raw['graph']}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for name, v in raw["metrics"].items():
        if name not in metrics:
            print(f"  {name:<28} {v:>16.6g} (not gated)")
    print(f"  medians over {raw['executions']} executions and "
          f"{raw['setup_repeats']} set-ups")
    if args.trace:
        print(f"  plus {raw['parallel_executions']} executions at "
              f"{raw['parallel_threads']} threads")
        kinds = {"exact": "repeat exactly, across thread counts too",
                 "threads": "repeat at one thread count only",
                 "varies": "vary between runs of one batch"}
        for kind, what in kinds.items():
            names = [k for k, v in raw["exact_counts"].items() if v == kind]
            print(f"  counts that {what}: {', '.join(names) or 'none'}")
        for name, secs in raw["block_s"].items():
            print(f"  {name:<10} {secs:.6f} s  "
                  f"{raw['block_rows'][name]:.0f} rows")
        print(f"  trace events: {os.path.relpath(trace_file, ROOT)}")
    print(f"  attempted {raw['attempted']} colorings, failed {raw['failed']}")

    correct = bool(raw["correct"]) and raw["failed"] == 0
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": seconds, "trace": args.trace, "result": result,
            "detail": {k: v for k, v in raw.items()
                       if k not in ("correct", "attempted", "failed")},
            "fingerprint": {"cpu_model": cpu_model(),
                            "nproc": os.cpu_count(), "threads": THREADS,
                            "compiler": raw["compiler"]},
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
