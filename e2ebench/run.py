#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (e2ebench/README.md).

One workload:
    python3 e2ebench/run.py --workload zipf-hot --seed 1 --seconds 10 --trace 0
prints the run's JSON result as the last line of stdout.  Every metric of
every workload, end-to-end and per-layer, by name and unit:
    python3 e2ebench/run.py --all --seed 1

The first run configures and builds the repository's library, the real
`tpc_serve` daemon and the load generator into $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench) as an optimized build; later runs rebuild
incrementally.  Exit status: 0 when every verdict was correct, nonzero on a
wrong verdict, a lost response, a build failure or a missing source tree.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["zipf-hot", "conp-mix", "schema-dtd"]
OPTIMIZED = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns the CMake build type."""
    os.makedirs(build_dir, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if not os.path.exists(cache):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def run_one(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None)."""
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-binary", os.path.join(build_dir, "tpc_serve"),
           # Relative, so the daemon's Unix socket path stays short.
           "--run-dir", os.path.relpath(run_dir, ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Reap the benchmark and anything it left behind (its daemons share
        # its process group).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = [l for l in out.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        return (proc.returncode or 2), None
    return proc.returncode, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced, and "
                         "print every metric by name and unit")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")

    for needed in ("src/CMakeLists.txt", "examples/tpc_serve.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"run.py: {needed} not found beside e2ebench/; the benchmark "
                "builds the program from the repository's sources")
            return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    try:
        build_type = build(build_dir)
    except subprocess.CalledProcessError as e:
        log(f"run.py: build failed: {e}")
        return 2
    log(f"run.py: build type {build_type or '(empty)'}")
    if build_type not in OPTIMIZED:
        log("run.py: refusing to measure a non-optimized build")
        return 2

    if not args.all:
        code, line = run_one(build_dir, args.workload, args.seed,
                             args.seconds, args.trace)
        if line is None:
            log(f"run.py: {args.workload} produced no result (exit {code})")
            return code or 2
        print(line, flush=True)
        return code

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, line = run_one(build_dir, workload, args.seed, args.seconds,
                                 trace)
            if line is None or code != 0:
                status = code or 2
                print(f"{workload} trace={trace}: FAILED (exit {code})")
                continue
            result = json.loads(line)
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:>18.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
