#!/usr/bin/env python3
"""Builds and runs the DiffProv end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sdn-trace|mr-jobs|service-mix \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the repo's libraries from
src/ plus dp_perfbench, Release) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls reuse the build. Build output goes to stderr.

--trace 0 prints the end-to-end metrics. --trace 1 splits the seconds between
an untraced reference run and a traced run, and adds obs.trace_overhead_pct
to the traced run's per-layer metrics: how much slower it served its queries
than the reference.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Any failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sdn-trace", "mr-jobs", "service-mix")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run it from a "
                 "checkout of the repository")
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dp_perfbench")


def run(binary, args, echo):
    """Runs the binary; returns its result object (its last stdout line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: dp_perfbench exited with code %d" %
                 proc.returncode)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs (the self-test)")
    parser.add_argument("--wrong-expectation", action="store_true",
                        help="check answers against a wrong expectation")
    opts = parser.parse_args()

    binary = build()
    # A traced run is two runs (reference and traced); halving each keeps it
    # about as long as an untraced run.
    seconds = opts.seconds if opts.trace == 0 else opts.seconds / 2
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(seconds)]
    if opts.small:
        args.append("--small")
    if opts.wrong_expectation:
        args.append("--wrong-expectation")

    if opts.trace == 0:
        result = run(binary, args + ["--trace", "0"], echo=True)
    else:
        reference = run(binary, args + ["--trace", "0"], echo=False)
        result = run(binary, args + ["--trace", "1"], echo=True)
        untraced_qps = reference["metrics"]["queries_per_s"]["value"]
        traced_qps = result["metrics"].pop("queries_per_s")["value"]
        result["metrics"]["obs.trace_overhead_pct"] = {
            "value": (untraced_qps / traced_qps - 1) * 100, "unit": "%"}
        result["attempted"] += reference["attempted"]
        result["failed"] += reference["failed"]
        result["correct"] = result["correct"] and reference["correct"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
