#!/usr/bin/env python3
"""Multi-access diversity gain versus the number of BSs, with lower and
upper bounds (symmetric networks, 10^4 users per group). Exact analysis
runs for M <= 3 by default; M = 4 needs --allow-long-running."""

import argparse
import sys

from frameless.cli import main as cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/gain_bounds.json")
    ap.add_argument("--out", default="out/gain_vs_bs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--allow-long-running", action="store_true")
    args = ap.parse_args()
    cli_args = ["bounds", "--config", args.config, "--out", args.out,
                "--seed", str(args.seed), "--workers", str(args.workers)]
    if args.allow_long_running:
        cli_args.append("--allow-long-running")
    return cli(cli_args)


if __name__ == "__main__":
    sys.exit(main())
