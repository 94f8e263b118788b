#!/usr/bin/env python3
"""Run one smerge_perf workload and print its result as one JSON line.

    python3 bench/perf/run.py --workload wire_light --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
smerge_perf from the checkout's own sources into $CARGO_TARGET_DIR
(default .bench_build); later calls reuse that build. The benchmark's
own lines are echoed to stdout; the last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit code is 0 whenever that line is
printed — a failed output check shows as "correct": false — and nonzero
when no result could be produced (a build failure, a crash, a missing
metric).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds smerge_perf; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "smerge_perf", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    binary = out / "smerge_perf"
    if not binary.is_file():
        raise RuntimeError("build produced no smerge_perf")
    return binary


def parse(lines, workload):
    """Metric and status lines of one workload's output."""
    metrics, status = {}, None
    for line in lines:
        fields = line.split()
        if len(fields) < 3 or fields[0] != workload:
            continue
        if fields[1] == "status":
            status = dict(f.split("=", 1) for f in fields[2:])
        elif len(fields) == 4:
            metrics[fields[1]] = (float(fields[2]), fields[3])
    return metrics, status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--trace", f"--trace-dir={spans}"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    metrics, status = parse(done.stdout.splitlines(), args.workload)
    if status is None or done.returncode not in (0, 1):
        log(f"run.py: smerge_perf exited with {done.returncode} and no result")
        return 1
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if missing:
        log("run.py: metrics not reported with their declared unit: " + ", ".join(missing))
        return 1
    result = {
        "correct": done.returncode == 0 and status["correct"] == "1",
        "attempted": int(status["attempted"]),
        "failed": int(status["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
