#!/usr/bin/env python3
"""Self-test of the benchmark on small inputs.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it checks that
  1. an untraced and a traced run print every end_to_end and per_layer
     metric named in BENCHMARK.json, with that metric's unit and a finite
     value, and pass every answer check;
  2. a second seed gives the same root causes;
  3. a deliberately wrong expected answer makes answers fail (error_rate > 0).
Exits non-zero on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), "--small"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def check_metrics(workload, result, wanted):
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail("%s: metric %s missing" % (workload, spec["name"]))
        if got["unit"] != spec["unit"]:
            fail("%s: %s has unit %s, want %s" %
                 (workload, spec["name"], got["unit"], spec["unit"]))
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail("%s: %s is not a finite number" % (workload, spec["name"]))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        fail("%s: metrics not in BENCHMARK.json: %s" % (workload, sorted(extra)))


def root_causes(lines):
    return [line for line in lines if line.startswith("root cause ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        lines, untraced = run(workload, 1, 0)
        check_metrics(workload, untraced, bench["end_to_end"])
        if not untraced["correct"] or untraced["failed"] != 0:
            fail("%s: answers failed on seed 1" % workload)
        _, traced = run(workload, 1, 1)
        check_metrics(workload, traced, bench["per_layer"])
        if not traced["correct"]:
            fail("%s: answers failed in the traced run" % workload)

        other_lines, other = run(workload, 2, 0)
        if not other["correct"]:
            fail("%s: answers failed on seed 2" % workload)
        if not root_causes(lines) or \
                root_causes(lines) != root_causes(other_lines):
            fail("%s: root causes differ between seeds:\n%s\n%s" %
                 (workload, root_causes(lines), root_causes(other_lines)))

        _, wrong = run(workload, 1, 0, "--wrong-expectation")
        if wrong["correct"] or wrong["failed"] == 0:
            fail("%s: a wrong expected answer was not counted" % workload)
        print("ok %s: %d metrics, %d root causes, %d/%d failed when wrong" %
              (workload, len(untraced["metrics"]), len(root_causes(lines)),
               wrong["failed"], wrong["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
