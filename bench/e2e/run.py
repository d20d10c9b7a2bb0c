#!/usr/bin/env python3
"""The benchmark command named in BENCHMARK.json.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds bench/e2e (CMake,
Release) under $CARGO_TARGET_DIR (default .bench_build), runs eyw_bench
once, and prints eyw_bench's `workload metric value unit` lines followed
by one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding BENCHMARK.json's end-to-end metrics (--trace 0) or its per-layer
metrics (--trace 1). Build output goes to stderr. The exit code is 0 only
when every correctness gate passed. Everything it writes stays under the
build directory, and the run's scratch directory is removed afterwards.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

# eyw_bench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    steps = [
        ["cmake", "-S", "bench/e2e", "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "eyw_bench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of an eyeWnder source checkout (no src/ here)")
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "e2e")
    build(build_dir)

    out_dir = os.path.join(
        build_dir, "runs",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    command = [os.path.join(build_dir, "eyw_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", out_dir]
    if args.trace:
        command.append("--trace")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out_dir, ignore_errors=True)
        fail(f"eyw_bench did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)

    results_path = os.path.join(out_dir, "results.json")
    if not os.path.isfile(results_path):
        fail(f"eyw_bench exited {proc.returncode} without results")
    with open(results_path) as f:
        workload = json.load(f)["workloads"][args.workload]
    shutil.rmtree(out_dir, ignore_errors=True)

    correct = proc.returncode == 0 and workload["correct"]
    metrics = {}
    if correct:
        # A traced invocation also ran the workload untraced; per-layer
        # entries may name one of its end-to-end numbers (ack_p99_ms).
        section = dict(workload["metrics"])
        if args.trace:
            section.update(workload["layers"])
        wanted = benchmark["per_layer" if args.trace else "end_to_end"]
        for metric in wanted:
            got = section.get(metric["name"])
            if got is None or got["value"] is None:
                fail(f"eyw_bench reported no {metric['name']}")
            if got["unit"] != metric["unit"]:
                fail(f"{metric['name']}: unit {got['unit']} != "
                     f"BENCHMARK.json's {metric['unit']}")
            metrics[metric["name"]] = got
    else:
        print(f"run.py: {workload.get('error', 'incorrect output')}",
              file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": workload.get("attempted", 1),
                      "failed": workload.get("failed", 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
