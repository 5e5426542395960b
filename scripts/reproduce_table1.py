#!/usr/bin/env python3
"""Reproduce the symmetric-network results: theoretical peak throughput,
simulated average throughput, and (optionally) the optimized target degrees
for M = 1..4 with 10^4 users per group.

Each M runs the CLI's analyze, simulate and optimize commands on
configs/table1_mM.json (the Table-1 degrees), copied under --out with the
given trial count. M = 4 exact analysis enumerates all 3^15 walk-graph
patterns of its 15 groups in one pass: its first run builds and caches the
tables, later runs load them.
"""

import argparse
import json
import sys
from pathlib import Path

from frameless.cli import main as cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def network_config(m: int, trials: int) -> dict:
    """configs/table1_mM.json with the given trial count."""
    doc = json.loads((CONFIGS / f"table1_m{m}.json").read_text())
    doc["trials"] = trials
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--optimize", action="store_true", help="also rerun the DE search")
    ap.add_argument("--fast", action="store_true", help="reduced DE settings")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--out", default="out/table1")
    args = ap.parse_args()

    status = 0
    for m in args.m:
        out = Path(args.out) / f"m{m}"
        out.mkdir(parents=True, exist_ok=True)
        config = out / "config.json"
        config.write_text(json.dumps(network_config(m, args.trials), indent=2) + "\n")
        common = ["--config", str(config), "--seed", str(args.seed),
                  "--workers", str(args.workers)]
        analysis = ["--cache-dir", args.cache_dir] if args.cache_dir else []
        print(f"M={m}: theoretical peak")
        codes = [cli(["analyze", *common, *analysis, "--out", str(out / "analyze")])]
        print(f"M={m}: simulated average over {args.trials} trials")
        codes.append(cli(["simulate", *common, "--out", str(out / "simulate")]))
        if args.optimize:
            print(f"M={m}: optimized degrees")
            fast = ["--fast"] if args.fast else []
            codes.append(cli(["optimize", *common, *analysis, *fast,
                              "--out", str(out / "optimize")]))
        status = max(status, *codes)
    return status


if __name__ == "__main__":
    sys.exit(main())
