#!/usr/bin/env python3
"""Builds the repair benchmark from source and runs one workload.

    python3 repairbench/run.py --workload NAME [--seed N] [--seconds N]
                               [--trace 0|1]

Run from anywhere inside a checkout of the repository. The first run
configures and builds a Release tree under .bench_build/ at the repository
root (about 30 s on 4 cores); later runs only rebuild what changed. Build
output goes to stderr; the benchmark's report goes to stdout, and its last
line is the JSON result. See repairbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "repairbench")
BINARY = os.path.join(BUILD_DIR, "repairbench")

WORKLOADS = {
    "chain_tail": "Sc^33 (domain 8), lazy repair with the group loop, then "
                  "verify_masking: livelock nu-Z, recovery preimages and "
                  "op-cache thrash",
    "byz_groups": "BA^7, lazy repair with the group loop, then "
                  "verify_masking: Step 2 group enumeration (realize)",
    "paper_sweep": "Tables I, II-a and II-b without Sc^35 (35 instances) "
                   "through run_batch at 3 jobs, verification on",
}


def parse_args(argv):
    epilog = "workloads:\n" + "\n".join(
        f"  {name:12} {why}" for name, why in WORKLOADS.items())
    parser = argparse.ArgumentParser(
        prog="repairbench/run.py", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Build the repair benchmark and run one workload.",
        epilog=epilog)
    parser.add_argument("--workload", required=True, choices=WORKLOADS,
                        help="workload to run")
    parser.add_argument("--seed", type=int, default=1,
                        help="stamped on the report; the workloads are the "
                             "paper's fixed problems (default 1)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="measure for at least this long (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced run with "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def fail(message):
    print(f"repairbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "repairbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha256():
    """Hash of the library and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main(argv):
    args = parse_args(argv)
    build()
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--git-sha={git_sha()}", f"--source-sha256={source_sha256()}"]
    if args.trace:
        command.append("--trace-out=" + os.path.join(
            BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
