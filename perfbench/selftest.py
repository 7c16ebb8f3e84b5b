#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark command.

    python3 perfbench/selftest.py

Run it from the root of a checkout. For every workload in BENCHMARK.json it
runs the command for one second, untraced and traced, and asserts that the
result line carries exactly the end-to-end (resp. per-layer) metrics named
in BENCHMARK.json, each with its unit, and that the run was correct. It
then corrupts one in-process reference per workload and asserts that the
run reports failures and exits nonzero. Last, it asserts that the command
fails without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files. Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"


def run(spec, workload, trace, extra=(), cwd=ROOT):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", SEED, "--seconds", "1",
        "--trace", trace] + list(extra)
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done, result


def check_metrics(result, expected, label, failures):
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        failures.append("%s: metrics %s, want %s" %
                        (label, sorted(metrics), sorted(want)))
        return
    for name, unit in want.items():
        entry = metrics[name]
        if entry.get("unit") != unit or not isinstance(
                entry.get("value"), (int, float)):
            failures.append("%s: %s is %s, want a number in %s" %
                            (label, name, entry, unit))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = "%s --trace %s" % (workload, trace)
            done, result = run(spec, workload, trace)
            if done.returncode != 0 or result is None:
                failures.append("%s: exit %d, no result\n%s" %
                                (label, done.returncode, done.stderr[-2000:]))
                continue
            if (set(result) != {"correct", "attempted", "failed", "metrics"}
                    or result["correct"] is not True
                    or result["failed"] != 0 or result["attempted"] < 1):
                failures.append("%s: bad result %s" % (label, result))
            check_metrics(result, expected, label, failures)
            print("ok   %s" % label, flush=True)

        label = "%s --tamper-reference" % workload
        done, result = run(spec, workload, "0", ["--tamper-reference"])
        if (done.returncode == 0 or result is None
                or result["correct"] is not False or result["failed"] < 1):
            failures.append("%s: tampered reference not caught (exit %d, %s)"
                            % (label, done.returncode, result))
        else:
            print("ok   %s (%d failed)" % (label, result["failed"]),
                  flush=True)

    # Only BENCHMARK.json and the benchmark's files: no program to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    done, result = run(spec, spec["workloads"][0]["name"], "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result is not None:
        failures.append("bare directory: exit %d, result %s" %
                        (done.returncode, result))
    else:
        print("ok   bare directory fails without a result", flush=True)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
