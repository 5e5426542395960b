#!/usr/bin/env python3
"""Reproduce the asymmetric two-BS study: theoretical peaks (and optionally
simulated averages / re-optimized degrees) for networks (a)-(g) where
N1 = N2 varies against N3.

Each row gets a config with the printed optimal degrees under --out, on
which the CLI's analyze (and simulate, optimize) commands run."""

import argparse
import json
import sys
from pathlib import Path

from frameless.cli import main as cli
from frameless.topology import full_topology, serialize_topology

# (N1=N2, N3) -> printed optimal degrees (G1=G2, G3) and peak throughput
TABLE2 = {
    "a": ((0, 10000), (0.0, 3.098), 0.874),
    "b": ((100, 10000), (1.388, 3.094), 0.893),
    "c": ((1000, 10000), (1.621, 3.063), 1.064),
    "d": ((10000, 10000), (1.812, 1.680), 1.676),
    "e": ((10000, 1000), (3.051, 1.869), 1.836),
    "f": ((10000, 100), (3.096, 0.302), 1.758),
    "g": ((10000, 0), (3.098, 0.0), 1.748),
}


def network_config(row: str, trials: int) -> dict:
    """Row's network with its printed optimal degrees."""
    (n1, n3), (g1, g3), _ = TABLE2[row]
    return {
        "topology": json.loads(serialize_topology(full_topology(2, [n1, n1, n3]))),
        "degrees": [g1, g1, g3],
        "alpha": 0.8,
        "trials": trials,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", nargs="+", default=list(TABLE2))
    ap.add_argument("--trials", type=int, default=0, help="simulate if > 0")
    ap.add_argument("--optimize", action="store_true")
    ap.add_argument("--fast", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--out", default="out/table2")
    args = ap.parse_args()

    status = 0
    for row in args.rows:
        (n1, n3), _, expect = TABLE2[row]
        out = Path(args.out) / row
        out.mkdir(parents=True, exist_ok=True)
        config = out / "config.json"
        config.write_text(json.dumps(network_config(row, args.trials), indent=2) + "\n")
        common = ["--config", str(config), "--seed", str(args.seed),
                  "--workers", str(args.workers)]
        cache = ["--cache-dir", args.cache_dir] if args.cache_dir else []
        print(f"({row}) N1={n1} N3={n3}: peak (printed S={expect})")
        codes = [cli(["analyze", *common, *cache, "--out", str(out / "analyze")])]
        if args.trials:
            print(f"({row}) simulated")
            codes.append(cli(["simulate", *common, "--out", str(out / "simulate")]))
        if args.optimize:
            print(f"({row}) optimized")
            fast = ["--fast"] if args.fast else []
            codes.append(cli(["optimize", *common, *cache, *fast,
                              "--out", str(out / "optimize")]))
        status = max(status, *codes)
    return status


if __name__ == "__main__":
    sys.exit(main())
