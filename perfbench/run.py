#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project of its own, Release) into
.bench_build/perfbench on first use, then runs one workload. Build
output goes to standard error; the benchmark's result is the last line
of standard output. Data directories and trace files go to
.bench_build/perfbench-data.

BENCHMARK.json is the one list of metric names and units. The
benchmark binary prints a value for each metric it measured; this
script adds the units, refuses a name BENCHMARK.json does not declare
or a missing end-to-end metric, and reports a per-layer metric the
workload did not measure as 0 (a layer that workload does not use).
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(2, "library sources not found under " + ROOT + "/src")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(3, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail(3, "build failed")


def with_units(values, trace):
    """The measured values as {name: {"value", "unit"}}, in the order
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        fail(4, "metrics not declared in BENCHMARK.json: %s" % unknown)
    missing = sorted(names - set(values))
    if missing and not trace:
        fail(4, "end-to-end metrics not measured: %s" % missing)
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in declared}


def arg_value(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    trace = arg_value(args, "--trace") == "1"
    build()
    os.makedirs(DATA, exist_ok=True)
    start_ns = time.monotonic_ns()
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench")] + args
        + ["--start-ns", str(start_ns), "--out-dir", DATA],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(4, "no result line in the benchmark's output")
    result["metrics"] = with_units(result["metrics"], trace)
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
