#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes, in seconds.

    python3 perfbench/smoke.py

Runs every workload's code path and output checks through run.py with
--smoke (M = 1 or 2, one DE generation, one frame or sweep point), once
untraced and once traced, and validates each result line against the
metric names in BENCHMARK.json. Also checks that run.py exits
non-zero without a result in a directory that holds only the benchmark.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def validate(result: dict, trace: int) -> list[str]:
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and failed == 0):
        errors.append(f"attempted={attempted} failed={failed}")
    wanted = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{name}: end-to-end value {value} is not positive")
    return errors


def main() -> int:
    errors = []
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        for trace in (0, 1):
            proc = run(
                ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
                ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            problems = validate(result, trace) + record["failures"]
            errors.extend(f"{name} trace={trace}: {p}" for p in problems)
            print(f"{name} trace={trace}: {'ok' if not problems else 'FAILED'}", flush=True)

    # Without the library source the benchmark must fail, not report.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", names[0], "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            errors.append(f"bare directory: exit {proc.returncode}, last line {last!r}")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for e in errors:
        print(f"ERROR {e}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
