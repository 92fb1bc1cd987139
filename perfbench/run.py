#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the Pathfinder libraries from src/ plus the pf_perfbench
program) into .bench_build/perfbench with CMake; later calls rebuild
incrementally. The program's human-readable report goes to stdout, and
the last stdout line is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics BENCHMARK.json lists
(--trace 0) or its per-layer metrics (--trace 1).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        configure = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
        if configure.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed")
    made = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                           "pf_perfbench", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if made.returncode != 0:
        die("build failed")
    return BUILD / "pf_perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             args.trace],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        die(f"benchmark exited with {run.returncode} and no result")
    result = json.loads(lines[-1])

    # Keep exactly the metrics BENCHMARK.json lists for this mode. A
    # metric a correct run did not produce is a benchmark bug.
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if result["correct"]:
                die(f"metric {m['name']} missing from the report")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']} has unit {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
