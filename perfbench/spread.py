"""Run a workload on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload spectrum --seeds 1-10 [--seconds 26] [--trace 0]

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure a metric's bound in BENCHMARK.json is compared with.
Runs execute one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", default="26")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - t0:.0f} s, correct={result['correct']}, "
              f"failed {result['failed']} of {result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, xs in values.items():
        med = stats.median(xs)
        spread = stats.quartile_spread(xs) if len(xs) >= 2 and med else float("nan")
        print(f"{name:32s} median {med:12.6g} {units[name]:6s} spread {spread:.4f}  "
              f"min {min(xs):.6g} max {max(xs):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
