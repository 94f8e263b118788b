#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/perf/spread.py [--runs 10] [--sets 1] [--workloads wire_light,recover]
                                 [--out bench/perf/results/spread.json]

Run from the root of a checkout. A set runs every workload `--runs`
times through run.py, with seeds 1..runs and BENCHMARK.json's
run_seconds; `--sets` repeats the whole set. For every end-to-end metric
it reports, per set, the median and the spread: the distance between
the first and third quartile (statistics.quantiles with n=4) as a share
of the median. With two or more sets it also reports how much worse
each later set's median is than the first's. A spread (setup_s
excepted) or a shift above the metric's bound means a difference that
large cannot be told from a regression; the target is a third of the
bound. Exits 1 when any of them exceeds its bound or a run fails.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run_once(workload, seed, seconds):
    """One run.py call; returns its parsed JSON result (or raises)."""
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {done.returncode}\n"
                           + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {(s, w): {m: [] for m in metrics} for s in range(args.sets) for w in names}
    ok = True
    for s in range(args.sets):
        for w in names:
            for i in range(args.runs):
                result = run_once(w, i + 1, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {i + 1}: incorrect result", file=sys.stderr)
                    ok = False
                for m in metrics:
                    values[(s, w)][m].append(result["metrics"][m]["value"])

    record = {"host": {"nproc": os.cpu_count(), "machine": platform.machine()},
              "run_seconds": spec["run_seconds"], "runs": args.runs, "sets": args.sets,
              "workloads": {}}
    for w in names:
        rows = {}
        for m, decl in metrics.items():
            sets = [summarize(values[(s, w)][m]) for s in range(args.sets)]
            sign = -1.0 if decl["better"] == "higher" else 1.0
            shifts = [sign * (x["median"] - sets[0]["median"]) / sets[0]["median"]
                      for x in sets[1:]]
            rows[m] = {"bound": decl["bound"], "sets": sets, "worse_shift": shifts}
            bound = decl["bound"]
            spreads = [x["spread"] for x in sets]
            over = (m != "setup_s" and max(spreads) > bound) or any(d > bound for d in shifts)
            ok = ok and not over
            flag = "OVER BOUND" if over else ("above bound/3" if max(spreads) > bound / 3 else "")
            print(f"{w:14s} {m:20s} median {sets[0]['median']:12.6g}  spread "
                  + " ".join(f"{x:.4f}" for x in spreads)
                  + ("  shift " + " ".join(f"{d:+.4f}" for d in shifts) if shifts else "")
                  + f"  bound {bound:.2f}  {flag}", flush=True)
        record["workloads"][w] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
