#!/usr/bin/env python3
"""Build and run the accred host-performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (a CMake package that
compiles ../src) in Release mode into $CARGO_TARGET_DIR, or .bench_build when
that is unset, runs one workload, and prints the result JSON as the last line
of standard output. With --trace 0 it also starts SETUP_REPS set-up-only
processes and reports the median set-up time of all of them. The metric names
and units printed must match BENCHMARK.json; a mismatch, a build failure or a
failed correctness check exits nonzero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 4
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    res = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_binary(cmd):
    """Run perfbench; return (returncode, stdout lines)."""
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    return res.returncode, res.stdout.splitlines()


def last_json(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    fail("no result line")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    binary = build(build_dir)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_REPS):
            code, lines = run_binary(base + ["--setup-only"])
            if code != 0:
                fail("set-up run failed")
            setup.append(last_json(lines)["setup_s"])

    spans = os.path.join(build_dir, f"spans-{args.workload}.json")
    code, lines = run_binary(base + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace),
                                     "--spans-out", spans])
    for line in lines[:-1]:
        print(line)
    result = last_json(lines)

    metrics = result["metrics"]
    if "setup_s" in metrics:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
        print(f"setup_s over {len(setup)} processes: "
              + ", ".join(f"{s:.4f}" for s in setup))
    got = [(k, v["unit"]) for k, v in metrics.items()]
    want = [(m["name"], m["unit"]) for m in wanted]
    if got != want:
        fail(f"metrics {got} do not match BENCHMARK.json {want}")
    print(json.dumps(result))
    sys.exit(code if code != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
