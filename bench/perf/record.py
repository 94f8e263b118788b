#!/usr/bin/env python3
"""Record one trajectory point: one full run and one traced run.

    python3 bench/perf/record.py bench/perf/results/<date>-<what>.json [--seed 20260728]

Run from the root of a checkout. Every workload runs once untraced and
once traced through run.py (BENCHMARK.json's run_seconds); the file
keeps both results, the binary's output digests, the host's CPU count
and the steal share the traced runs measured, so later points can be
set beside this one.
"""
import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    status = next(line.split()[2:] for line in lines
                  if line.split()[:2] == [workload, "status"])
    notes = [line for line in lines if line.startswith(f"# {workload} ")]
    return {"result": json.loads(lines[-1]), "status": status, "notes": notes}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, default=20260728)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"date": datetime.date.today().isoformat(),
             "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
             "seed": args.seed, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        point["workloads"][name] = {
            "full": run(name, args.seed, spec["run_seconds"], 0),
            "traced": run(name, args.seed, spec["run_seconds"], 1),
        }
        print(f"recorded {name}", file=sys.stderr, flush=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
