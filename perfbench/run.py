#!/usr/bin/env python3
"""Campaign benchmark entry point: builds the benchmark package, runs one workload
and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); WAL files and span dumps go to <target>/perfbench-work. With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Any failed output check exits non-zero
without a result. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0x1E60
# Workloads that shard over worker threads; every other workload is serial
# and runs pinned to one CPU. Must match `workers` in src/lib.rs.
PARALLEL = {"mysql-2w"}
# Each run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Coverage site ids hash `file!()`, and cargo passes absolute source paths
    # for path dependencies outside the building workspace. Remapping the
    # checkout root away makes them the workspace-relative paths the
    # repository's own binaries hash, so campaigns are identical to
    # `lego_cli fuzz` and do not depend on where the checkout lives.
    flags = [f"--remap-path-prefix={ROOT}/="]
    if os.environ.get("CARGO_ENCODED_RUSTFLAGS"):
        flags.insert(0, os.environ["CARGO_ENCODED_RUSTFLAGS"])
    env["CARGO_ENCODED_RUSTFLAGS"] = "\x1f".join(flags)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def pin_to_one_cpu():
    # Set-up takes well under a millisecond; unpinned samples hit
    # multi-millisecond migration outliers.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**64 or args.seconds < 1:
        fail("--seed must fit in 64 bits and --seconds be positive")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    binary = os.path.join(target, "release", "perfbench-traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work]
    pin = None if args.workload in PARALLEL else pin_to_one_cpu
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["correct"] is not True:
        fail(f"malformed result: {lines[-1]}")
    if want is not None and list(result["metrics"]) != want:
        fail(f"metrics {list(result['metrics'])} differ from BENCHMARK.json {want}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
