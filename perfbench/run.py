#!/usr/bin/env python3
"""End-to-end benchmark of topkrgs: builds perfbench_main from source and
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. The optimized build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); generated
inputs and trace files go to .bench_work/. Every line but the last is for
people; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. A per-layer metric the workload does not
exercise reads 0. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def run_workload(binary, args, work_dir, deadline):
    """Runs the driver in its own process group, so a timeout also stops
    the load generator it forks. Returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload}: timed out")
        return 1, []
    return proc.returncode, out.splitlines()


def select_metrics(measured, spec, trace):
    """Picks BENCHMARK.json's metric set for this pass, checking units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                raise KeyError(f"end-to-end metric {name} not measured")
            got = {"value": 0, "unit": unit}  # layer not exercised here
        if got["unit"] != unit:
            raise ValueError(f"{name}: unit {got['unit']} != {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.time() + TIMEOUT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target
    build_dir = build_root / "perfbench"
    if not build(build_dir):
        log("build failed")
        return 1
    deadline = max(deadline, time.time() + 150)  # a first build may be slow

    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    code, lines = run_workload(build_dir / "perfbench_main", args, work_dir,
                               deadline)
    if code != 0 or not lines:
        log(f"{args.workload} failed with exit code {code}")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    try:
        metrics = select_metrics(result["metrics"], spec, args.trace)
    except (KeyError, ValueError) as err:
        log(str(err))
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
