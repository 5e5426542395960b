#!/usr/bin/env python3
"""Run every workload and print its metrics, or compare two saved sets.

    python3 perfbench/report.py                        # all workloads, seed 0
    python3 perfbench/report.py --seeds 0 1 2 3 4 --save runs.json
    python3 perfbench/report.py --compare before.json after.json

Each run is a separate `run.py` process, so peak_rss_mb covers that
workload alone. For every workload the table lists each end-to-end
metric with its unit (median and quartile spread over the seeds run),
failed_frac (failed over attempted operations), the per-operation
details, every failed check and every note. `--trace` adds one traced
run per workload and prints its per-layer metrics. `--compare` prints, per
workload and metric, both medians, the change as a share of the first
median, and the bound from BENCHMARK.json. Exit status is 1 if any check
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median, as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def print_workload(name: str, runs: list[dict]):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"== {name}: {len(runs)} run(s), seeds {[r['provenance']['seed'] for r in runs]}")
    for m in SPEC["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med, rel = spread(vals)
        print(f"  {m['name']:<14} {med:12.6g} {m['unit']:<6} spread {rel:6.3f} (bound {m['bound']})")
    print(f"  {'failed_frac':<14} {failed / max(attempted, 1):12.6g} ratio  ({failed}/{attempted} operations)")
    detail_keys = sorted({k for r in runs for k in r["details"]})
    for key in detail_keys:
        vals = [r["details"][key] for r in runs if key in r["details"]]
        med = statistics.median(v["value"] for v in vals)
        print(f"  {key:<22} {med:12.6g} {vals[0]['unit']} (raw wall time)")
    for r in runs:
        for msg in r["failures"]:
            print(f"  FAILED (seed {r['provenance']['seed']}): {msg}")
        for msg in r["notes"]:
            print(f"  note (seed {r['provenance']['seed']}): {msg}")


def compare(before_path: str, after_path: str):
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    print(f"{'workload':<18} {'metric':<14} {'before':>12} {'after':>12} {'change':>8} bound")
    for name in before:
        if name not in after:
            continue
        for m in SPEC["end_to_end"]:
            b = [r["result"]["metrics"][m["name"]]["value"] for r in before[name]]
            a = [r["result"]["metrics"][m["name"]]["value"] for r in after[name]]
            mb, sb = spread(b)
            ma, sa = spread(a)
            change = (ma - mb) / mb
            print(
                f"{name:<18} {m['name']:<14} {mb:12.6g} {ma:12.6g} {change:+8.3f} "
                f"{m['bound']} ({m['better']} is better; spreads {sb:.3f}/{sa:.3f})"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--trace", action="store_true", help="also run each workload traced")
    ap.add_argument("--save", help="write all run records to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    saved, any_failed = {}, False
    for name in args.workloads:
        runs = [run_once(name, seed, 0) for seed in args.seeds]
        saved[name] = runs
        print_workload(name, runs)
        any_failed |= any(not r["result"]["correct"] for r in runs)
        if args.trace:
            traced = run_once(name, args.seeds[0], 1)
            print(f"  -- per-layer (traced, seed {args.seeds[0]})")
            for key, m in traced["result"]["metrics"].items():
                print(f"  {key:<40} {m['value']:14.6g} {m['unit']}")
            any_failed |= not traced["result"]["correct"]
        sys.stdout.flush()
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
