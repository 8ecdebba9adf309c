#!/usr/bin/env python3
"""Sweep the noise level and tabulate reconstruction error vs cut-off size.

Usage:
    python scripts/noise_sweep.py [--example 2] [--eps 1e-1 1e-2 ... ] [--out out]

Writes <out>/sweep_example<N>.csv with one row per epsilon: the cut-off
threshold, the retained mode count and the L2 reconstruction error
against the known initial state.  Useful for eyeballing how the error
tracks the eps -> 0 limit on a denser ladder than the canned runs.
Exit codes are those of the twoslab CLI: 1 for an invalid ladder (an eps
outside (0, 1), two with one label, or one whose cut-off needs a mode
matrix past the budget), 2 for a numerical failure.
"""

import argparse
import sys
from pathlib import Path

from twoslab.cli import config_from_dict, default_config, eps_label, run_example
from twoslab.core import NumericalError, ValidationError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--example", default="2", choices=["1", "2", "3", "2d"])
    ap.add_argument(
        "--eps", type=float, nargs="+",
        default=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
    )
    ap.add_argument("--out", default="out")
    args = ap.parse_args()

    try:
        cfg = config_from_dict({"eps_list": args.eps}, default_config(args.example))
        result = run_example(args.example, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    rows = ["epsilon,n_eps,retained_modes,l2_error_vs_initial"]
    for eps in cfg.eps_list:
        per = result.metadata["per_eps"][eps_label(eps)]
        rows.append(
            f"{eps:g},{per['n_eps']:.6f},{per['retained_modes']},{per['l2_error_vs_initial']:.6e}"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_example{args.example}.csv"
    path.write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
