#!/usr/bin/env python3
"""Builds and runs the cellscope benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the framework libraries
from src/ plus the benchmark program, Release) into .bench_build/ at the
checkout root. Later runs only let the build check itself. The program's
output is passed through, except its last line, the JSON result: that is
checked against the metrics BENCHMARK.json declares (names and units) and
printed again with every declared per-layer metric the workload does not
exercise added as 0.

Exits 0 when every correctness check passed, 1 when one failed (the result
is still printed, with "correct": false) and 2 when the run could not be
made: a failed build, a crash or a metric BENCHMARK.json does not declare.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simulate", "replay", "query_cold", "query_hot")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no framework sources at src/ next to perfbench/; run from a "
             "full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, declared, trace):
    """Checks the measured metrics against the declared ones and returns
    every declared metric, in declared order, with the layers the workload
    does not exercise as 0."""
    measured = result["metrics"]
    for name, metric in measured.items():
        if declared.get(name) != metric["unit"]:
            fail("metric %s (%s) is not declared in BENCHMARK.json"
                 % (name, metric["unit"]))
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            metrics[name] = measured[name]
        elif trace:
            print("  %-28s %16d %s  (layer not exercised)" % (name, 0, unit))
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail("end-to-end metric %s was not measured" % name)
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_build")
    binary = build(out_dir)
    declared = declared_metrics(args.trace)
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", os.path.join(out_dir, "work")],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if run.returncode not in (0, 1):
        sys.stdout.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    result = complete(json.loads(lines[-1]), declared, args.trace)
    print(json.dumps(result))
    sys.exit(run.returncode)

if __name__ == "__main__":
    main()
