#!/usr/bin/env python3
"""Build the benchmark binary from this checkout's sources and run it.

Usage (from the repository root):
    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 30 --trace 0

The binary (perfbench/xr_bench) is configured with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), compiling the
xrdma library from src/. Build output goes to stderr, so the last line of
stdout is the JSON result of xr_bench. With --trace 1 the host-clock spans are
written to <build dir>/perfbench-spans/<workload>-seed<n>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_small", "storage_write", "db_txn", "xcheck_faults")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no xrdma sources (src/) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "xr_bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    out = os.path.join(build_dir(), "perfbench")
    exe = build(out)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(build_dir(), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
