#!/usr/bin/env python3
"""Multi-access diversity gain versus the number of BSs, with lower and
upper bounds (symmetric networks, 10^4 users per group). The exact
cooperative gain is computed for every M that the config's exact_degrees
names; the shipped config names M = 1..3."""

import argparse
import sys

from frameless.cli import main as cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/gain_bounds.json")
    ap.add_argument("--out", default="out/gain_vs_bs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    return cli(["bounds", "--config", args.config, "--out", args.out,
                "--seed", str(args.seed), "--workers", str(args.workers)])


if __name__ == "__main__":
    sys.exit(main())
