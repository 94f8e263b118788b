#!/usr/bin/env python3
"""Smoke test: every workload at a tiny scale, traced, in a few seconds.

    python3 bench/perf/smoke.py path/to/smerge_perf

Asserts that the binary exits 0, that every workload of BENCHMARK.json
reports correct=1 and failed=0, that every end-to-end and per-layer
metric is printed with its declared unit, and that the wire workloads
print their accounting line. Span files land in the working directory.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.argv[1], "--workload=all", "--seconds=0.3", "--scale=0.05",
                           "--trace", "--trace-dir=."],
                          capture_output=True, text=True, timeout=120, check=False)
    errors = []
    if done.returncode != 0:
        errors.append(f"exit code {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = [line.split() for line in done.stdout.splitlines()]
    declared = spec["end_to_end"] + spec["per_layer"]
    for w in spec["workloads"]:
        name = w["name"]
        printed = {f[1]: f[3] for f in lines if len(f) == 4 and f[0] == name}
        status = [f for f in lines if len(f) > 2 and f[0] == name and f[1] == "status"]
        if not status or "correct=1" not in status[0] or "failed=0" not in status[0]:
            errors.append(f"{name}: status {status}")
        for m in declared:
            if printed.get(m["name"]) != m["unit"]:
                errors.append(f"{name}: {m['name']} not printed in {m['unit']}")
        if name.startswith("wire_") and not any(
                f[:3] == ["#", name, "accounting"] for f in lines):
            errors.append(f"{name}: no accounting line")
    for e in errors:
        print("smoke:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
