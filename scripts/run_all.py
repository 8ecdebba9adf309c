#!/usr/bin/env python3
"""Run every canned experiment plus the bound suite into one directory.

Usage:
    python scripts/run_all.py [--out out] [--trials 100] [--seed N]

Runs ``twoslab example 1/2/3/2d`` and then ``twoslab check-bounds``, all
with the same --out and --seed.  Artifacts land in <out>/example{1,2,3,2d}/
and <out>/bounds.csv.  Stops at the first run that exits 1 (invalid input)
or 2 (numerical failure) and returns that code; otherwise returns the
largest code, so 3 means some run reported a bound violation.
"""

import argparse
import sys

from twoslab.cli import main as twoslab


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--trials", type=int, default=100, help="bound-suite trials")
    ap.add_argument("--seed", type=int, default=None, help="override every config seed")
    args = ap.parse_args()

    common = ["--out", args.out] + ([] if args.seed is None else ["--seed", str(args.seed)])
    runs = [["example", which] for which in ("1", "2", "3", "2d")]
    worst = 0
    for argv in runs + [["check-bounds", "--trials", str(args.trials)]]:
        code = twoslab(argv + common)
        if code in (1, 2):
            return code
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
