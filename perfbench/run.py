#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
(Release) into .bench_build/perfbench; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark
binary's result object. Each result is also appended, with the host
fingerprint, to .bench_build/perfbench-results.jsonl; a result whose
fingerprint differs from an earlier one there is flagged on stderr,
because results from different hosts or builds are not comparable.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
HISTORY = os.path.join(BUILD_ROOT, "perfbench-results.jsonl")
SPANS_DIR = os.path.join(BUILD_ROOT, "perfbench-spans")
WORKLOADS = ("online_small", "bulk_select", "routed_remote_crowd")
# One run must end within 180 s; the binary is stopped before that.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if _have("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, stderr=sys.stderr)
            if configure.returncode != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        compiled = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
             jobs], stdout=sys.stderr, stderr=sys.stderr)
        return compiled.returncode == 0


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def record(args, fingerprint, result):
    """Appends the result to the history and flags a fingerprint change."""
    earlier = set()
    if os.path.exists(HISTORY):
        with open(HISTORY) as history:
            for line in history:
                try:
                    earlier.add(json.dumps(json.loads(line)["host"],
                                           sort_keys=True))
                except (ValueError, KeyError):
                    continue
    this = json.dumps(fingerprint, sort_keys=True)
    if earlier and this not in earlier:
        print("perfbench: WARNING: host fingerprint %s differs from earlier "
              "results in %s %s; do not compare them" %
              (this, HISTORY, sorted(earlier)), file=sys.stderr)
    with open(HISTORY, "a") as history:
        history.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": fingerprint, "result": result}) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tamper-reference", action="store_true",
                        help="self-test: corrupt one reference reply")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.tamper_reference:
        command.append("--tamper-reference")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = run.stdout.splitlines()
    fingerprint = None
    for line in lines:
        if line.startswith("perfbench-host "):
            fingerprint = json.loads(line[len("perfbench-host "):])
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or fingerprint is None:
        print("perfbench: binary exited %d without a result" % run.returncode,
              file=sys.stderr)
        return run.returncode or 2
    record(args, fingerprint, result)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
