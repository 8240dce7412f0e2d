#!/usr/bin/env python3
"""Build and run the host-time benchmark of the `last` simulator.

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds hostbench/ (the driver plus the
simulator library from src/, in Release) into .bench_build/, then runs
the driver on the committed last_bench_cache.csv. Build output goes to
standard error; the driver's standard output is passed through, and
its last line is the JSON result. Workloads are listed in
BENCHMARK.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "hostbench")
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ["sweep-serial", "sweep-parallel", "alu-resident", "warm-reuse"]

# Each run must end well inside a 180 s limit; the driver's own
# deadline is --seconds plus one iteration.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    """Configure and build; the build tool decides what is stale."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "hostbench"]):
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def commit_id():
    """The git commit, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--commit", commit_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
