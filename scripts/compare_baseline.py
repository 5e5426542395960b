#!/usr/bin/env python3
"""Frameless ALOHA versus the framed spatio-temporal baseline on the
five-group comparison network: normalized load sweep of PLR and
normalized throughput (plot-ready CSV)."""

import argparse
import sys

from frameless.cli import main as cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/compare_baseline.json")
    ap.add_argument("--out", default="out/compare_baseline")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    return cli(["compare", "--config", args.config, "--out", args.out,
                "--seed", str(args.seed), "--workers", str(args.workers)])


if __name__ == "__main__":
    sys.exit(main())
