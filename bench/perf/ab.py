#!/usr/bin/env python3
"""Compare two checkouts on smerge_perf: parent against change.

    python3 bench/perf/ab.py --parent ../parent --change . [--pairs 10]
                             [--workloads wire_light,recover] [--out ab.json]

Each side is the root of a checkout; its own bench/perf/run.py builds and
runs it. For every workload the script runs `--pairs` (at least 10)
parent/change pairs, alternating which side runs first, pair i using
seed i+1 on both sides with BENCHMARK.json's run_seconds. For every
(end-to-end metric, workload) it prints each side's median and
quartiles, the change's win share (ties count for neither side) and a
verdict, following the rule for claiming a gain:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ, in its favour, by more than the parent's own
              quartile distance;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread (quartile distance / median) is
              wider than the bound, and not every change run beats every
              parent run;
  no change   otherwise.

The comparison is refused (exit 2) when the two sides' benchmark code
differs (BENCHMARK.json and bench/perf, results/ excepted) or when a
workload's output digest differs between the sides for the same seed:
outputs are deterministic per seed, so a different digest means the
change altered results and its timings compare different work.
Exit 1 when any verdict is a regression or a run fails.
"""
import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path("bench/perf")


def bench_fingerprint(root):
    h = hashlib.sha256()
    files = [root / "BENCHMARK.json"] + sorted(
        p for p in (root / BENCH).rglob("*")
        if p.is_file() and "results" not in p.relative_to(root / BENCH).parts
        and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run(root, workload, seed, seconds):
    """One run on one side: (JSON result, output digest)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    digest = None
    for line in lines:
        fields = line.split()
        if len(fields) > 2 and fields[0] == workload and fields[1] == "status":
            digest = dict(f.split("=", 1) for f in fields[2:]).get("digest")
    return json.loads(lines[-1]), digest


def verdict(parent, change, better, bound):
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_share = wins / len(parent)
    worse_by = -sign * (mc - mp) / mp if mp else 0.0
    if win_share >= 0.9 and sign * (mc - mp) > (q3 - q1):
        v = "gain"
    elif worse_by > bound:
        v = "regression"
    elif (q3 - q1) / mp > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        v = "unresolved"
    else:
        v = "no change"
    cq1, _, cq3 = statistics.quantiles(change, n=4)
    return {"parent_median": mp, "parent_q1": q1, "parent_q3": q3,
            "change_median": mc, "change_q1": cq1, "change_q3": cq3,
            "win_share": win_share, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    parent, change = args.parent.resolve(), args.change.resolve()
    if bench_fingerprint(parent) != bench_fingerprint(change):
        print("ab.py: the two sides run different benchmark code; refusing", file=sys.stderr)
        return 2

    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"pairs": args.pairs, "run_seconds": seconds, "workloads": {}}
    status = 0
    for name in names:
        values = {m["name"]: ([], []) for m in spec["end_to_end"]}
        for i in range(args.pairs):
            seed = i + 1
            sides = [(0, parent), (1, change)]
            if i % 2:
                sides.reverse()
            results, digests = {}, {}
            for idx, root in sides:
                try:
                    results[idx], digests[idx] = run(root, name, seed, seconds)
                except RuntimeError as e:
                    print(f"ab.py: {e}", file=sys.stderr)
                    return 1
            if digests[0] != digests[1]:
                print(f"ab.py: {name} seed {seed}: output digest {digests[0]} (parent) != "
                      f"{digests[1]} (change); refusing", file=sys.stderr)
                return 2
            if not (results[0]["correct"] and results[1]["correct"]):
                print(f"ab.py: {name} seed {seed}: an incorrect result", file=sys.stderr)
                status = 1
            for m in values:
                values[m][0].append(results[0]["metrics"][m]["value"])
                values[m][1].append(results[1]["metrics"][m]["value"])
        rows = {}
        for m in spec["end_to_end"]:
            row = verdict(*values[m["name"]], m["better"], m["bound"])
            rows[m["name"]] = row
            if row["verdict"] == "regression":
                status = max(status, 1)
            print(f"{name:14s} {m['name']:20s} parent {row['parent_median']:12.6g} "
                  f"[{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]  change "
                  f"{row['change_median']:12.6g} [{row['change_q1']:.6g}, "
                  f"{row['change_q3']:.6g}]  wins {row['win_share']:.2f}  {row['verdict']}",
                  flush=True)
        report["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
