#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload md-256 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/CMakeLists.txt (the MUTLS sources under src/ plus the benchmark
program in perfbench/bench.cpp) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr. The program's report goes to stdout, and its last line is
the JSON result, checked here against the metrics BENCHMARK.json declares:
--trace 0 reports every end_to_end metric, --trace 1 every per_layer metric
and writes the span trace next to the build as Chrome trace-event JSON.

Exits non-zero, printing no result, when the tree has no sources to build,
the build or the program fails, the program reports an incorrect result, or
the result does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "spec.h")):
        fail(f"no MUTLS sources under {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_rev():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_problem(line, trace):
    """Returns why the result line is refused, or None if it is accepted."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the program's last line is not JSON"
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result {line[:200]}"
    if result["correct"] is not True:
        return ("a repetition's result differs from its sequential oracle, "
                "threw, or the final state check failed")
    want = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return (f"metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(want) - set(got))}, "
                f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != want[name] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            return f"metric {name} is malformed: {m}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes, for the benchmark's own tests")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the program did not finish within {PROGRAM_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"the program exited with {r.returncode}")
    problem = result_problem(r.stdout.rstrip("\n").rsplit("\n", 1)[-1],
                             args.trace)
    if problem:
        sys.stderr.write(r.stdout)
        fail(problem)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
