#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload analyze-m3 --seed 0 --seconds 30 --trace 0

Run from the repository root. The workload's inputs come from --seed. A
run first times the cold set-up in SETUP_REPS fresh interpreters (import
plus engine construction with an empty table cache) and reports their
median as setup_s. It then performs operations one after another (a
closed loop, one caller, workers=1) until the next one would end after
--seconds, checks every output, and reports:

* --trace 0: the end-to-end metrics (setup_s, op_s, peak_rss_mb). The
  reference kernel (reference.py) is timed next to every set-up and
  operation, and both times are scaled by it to a host of fixed speed;
* --trace 1: the per-layer metrics of one traced set-up plus the mean
  traced operation. Each operation runs untraced and then traced with
  the same inputs; the difference is reported as the tracing overhead.

The last line is {"correct", "attempted", "failed", "metrics"}; the line
before it holds provenance, per-operation details, failure messages and
notes (findings that do not fail an operation).
Every table cache lives in a fresh directory under .perfbench_tmp/ in
the repository and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPS = 5
WORKLOAD_NAMES = ("analyze-m3", "optimize-m2", "simulate-m3", "compare-baseline")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    ap.add_argument("--spans", help="traced run: write the spans to this JSONL file")
    ap.add_argument("--cold-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cache-dir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cold_setup(args) -> dict:
    """Child-process side: time import plus the workload's set-up, then
    the reference kernel in the same process."""
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    w.build(args.seed)
    t2 = time.perf_counter()
    w.setup(args.cache_dir)
    t3 = time.perf_counter()
    import reference

    ref = reference.Reference()
    kernel_s = statistics.median(ref.sample() for _ in range(3))
    return {"setup_s": (t1 - t0) + (t3 - t2), "kernel_s": kernel_s}


def timed_setups(args, reps: int, run_dir: Path) -> list[dict]:
    """Cold set-up in `reps` fresh interpreters, each with an empty cache."""
    import subprocess
    import tempfile

    out = []
    for _ in range(reps):
        cache = tempfile.mkdtemp(dir=run_dir)
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--cold-setup",
            "--workload", args.workload, "--seed", str(args.seed), "--cache-dir", cache,
        ]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def provenance(args) -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "frameless").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workers": 1,
    }


def measure(args, w, ref=None, tracer=None):
    """Closed loop over operations until the next would pass the deadline,
    judged by the slowest operation so far.

    With `ref`, a reference-kernel sample is taken before the first
    operation and after each one. Returns (op durations, kernel samples,
    per-op detail dicts, failure messages, number of failed operations,
    untraced-vs-traced overheads).
    """
    durations, kernel, details, failures, overheads = [], [], [], [], []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    if ref is not None:
        kernel.append(ref.sample())
    k = 0
    while True:
        now = time.perf_counter()
        if k > 0 and now + max(durations) * (2 if tracer else 1) > deadline:
            break
        try:
            t0 = time.perf_counter()
            out = w.run(k)
            dur = time.perf_counter() - t0
            detail = out[1]
            if tracer is not None:
                tracer.run_id = f"op{k}"
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    out = w.run(k)
                    overheads.append(time.perf_counter() - t0 - dur)
                finally:
                    tracer.uninstall()
            fails = w.check(out)
        except Exception as exc:  # an operation that raises counts as failed
            durations.append(time.perf_counter() - t0)
            failures.append(f"op {k}: {type(exc).__name__}: {exc}")
            failed += 1
            break
        finally:
            if ref is not None:
                kernel.append(ref.sample())
        durations.append(dur)
        details.append(detail)
        if fails:
            failed += 1
            failures.extend(f"op {k}: {msg}" for msg in fails)
        k += 1
    return durations, kernel, details, failures, failed, overheads


RATES = {
    "frameless_slots_per_s": ("frameless_slots", "frameless_s"),
    "fixed_slots_per_s": ("fixed_slots", "fixed_s"),
    "baseline_frames_per_s": ("baseline_frames", "baseline_s"),
}


def summarize_details(details: list[dict]) -> dict:
    """Rates over the whole run, and the median of every other timing,
    all in raw wall time."""
    out = {}
    keys = {key for d in details for key in d}
    for rate, (amount, secs) in RATES.items():
        if amount in keys:
            value = sum(d[amount] for d in details) / sum(d[secs] for d in details)
            out[rate] = {"value": value, "unit": "1/s"}
            keys -= {amount, secs}
    for key in sorted(keys):
        out[key] = {"value": statistics.median(d[key] for d in details), "unit": "s"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frameless" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.cold_setup:
        print(json.dumps(cold_setup(args)))
        return 0

    import resource
    import shutil
    import tempfile

    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    # Keep every table cache inside this run's directory, whatever the
    # caller's environment says.
    os.environ["FRAMELESS_CACHE_DIR"] = str(run_dir / "default-cache")
    try:
        import reference
        import workloads

        w = workloads.WORKLOADS[args.workload](smoke=args.smoke)
        w.build(args.seed)
        tracer = ref = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                w.setup(run_dir / "cache")
            finally:
                tracer.uninstall()
        else:
            setups = timed_setups(args, 1 if args.smoke else SETUP_REPS, run_dir)
            w.setup(run_dir / "cache")
            ref = reference.Reference()

        durations, kernel, details, failures, failed, overheads = measure(args, w, ref, tracer)
        failures.extend(f"run: {msg}" for msg in w.finish())
        if tracer is not None:
            metrics = tracer.metrics(len(overheads))
            metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
            metrics["trace.overhead_ratio"] = (
                statistics.median(o / d for o, d in zip(overheads, durations))
                if overheads else 0.0
            )
            if args.spans:
                tracer.write_spans(args.spans)
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # Each operation is scaled by the mean of the kernel samples
            # taken just before and just after it.
            op_scaled = [
                reference.scaled(d, (before + after) / 2)
                for d, before, after in zip(durations, kernel, kernel[1:])
            ]
            metrics = {
                "setup_s": statistics.median(
                    reference.scaled(s["setup_s"], s["kernel_s"]) for s in setups
                ),
                "op_s": statistics.median(op_scaled),
                "peak_rss_mb": rss_kib / 1024.0,
            }
        units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
        record = {
            "provenance": provenance(args),
            "n_ops": len(durations),
            "op_durations_s": durations,
            "details": summarize_details(details),
            "failures": failures,
            "notes": w.notes,
        }
        if not args.trace:
            record["setups"] = setups
            record["kernel_s"] = kernel
        result = {
            "correct": not failures,
            "attempted": len(durations),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
