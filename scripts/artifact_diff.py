#!/usr/bin/env python3
"""Run one fixed command list in this tree and in another, and compare every artifact.

Usage:
    python scripts/artifact_diff.py --against TREE [--work DIR] [--only NAME ...]

TREE is another checkout of this repository, for instance the parent
commit unpacked with ``git archive HEAD~1 | tar -x -C TREE``.  Both trees
are byte-compiled first.  Each command then runs in a child process with
one BLAS thread, the tree's own ``src`` first on PYTHONPATH, and a fresh
working directory <work>/<side>/<command>, so the artifacts of the two
trees are written under the same relative paths.  The input CSVs are
written once, by this script, and both trees read the same files.  A
command's exit code, stdout and stderr are one more artifact, ``run.log``.

Prints one line per file: "identical", or how many rows differ, followed
by the differing rows and the largest relative change per column.  The
last line is the summary.  Exits 0 when every file is identical, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (name, argv): "run_all.py" starts that script of the tree, anything else
# is a ``twoslab.cli`` subcommand; {name} is an input file of ``write_inputs``
POLICIES = ("projection", "least-squares", "strict-paper")
COMMANDS = (
    [("run_all", ["run_all.py", "--trials", "20"]), ("eigen", ["eigen", "--count", "2000"])]
    + [
        (f"{step}-{csv}-{policy}", [step, "--infile", "{" + csv + "}", *extra, "--config", "{" + policy + "}"])
        for csv in ("csv20", "csv2500")
        for policy in POLICIES
        for step, extra in (("forward", ["--modes", "12"]), ("backward", ["--eps", "1e-2"]))
    ]
    + [
        ("example-2d-beta0.2", ["example", "2d", "--config", "{beta02}"]),
        ("example-1-raw260", ["example", "1", "--config", "{raw260}"]),
    ]
    + [(f"table-{which}", ["table", which]) for which in ("1", "2", "3", "2d")]
)

CONFIGS = {
    **{policy: {"recovery_policy": policy} for policy in POLICIES},
    "beta02": {"beta": 0.2, "gamma": 1.0, "eps_list": [1e-6]},
    # a blocked square grid for the raw inversion
    "raw260": {"mode_count": 260, "grid_points": 300},
}

# rows shown per differing file
SHOW_ROWS = 5


def _field_csv(path: Path, nodes_b: np.ndarray, nodes_a: np.ndarray) -> None:
    # a smooth field of the default rod (b = 5, a = 3), continuous at x = 0
    rows = ["slab,x,value"]
    for slab, nodes in (("b", nodes_b), ("a", nodes_a)):
        values = np.cos(0.3 * nodes) + 0.1 * np.sin(1.7 * nodes)
        rows += [f"{slab},{x:.10e},{v:.10e}" for x, v in zip(nodes, values)]
    path.write_text("\n".join(rows) + "\n")


def write_inputs(inputs: Path) -> dict[str, str]:
    """Write the input files and return {name: absolute path}."""
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    _field_csv(inputs / "csv20.csv", np.linspace(-5.0, 0.0, 20), np.linspace(0.0, 3.0, 20))
    # 2500 nodes per slab, interior nodes moved by up to 0.3 spacings: not a linspace
    rng = np.random.default_rng(2500)
    jitter = [np.concatenate(([0.0], 0.3 * rng.uniform(-1, 1, 2498), [0.0])) for _ in range(2)]
    _field_csv(
        inputs / "csv2500.csv",
        np.linspace(-5.0, 0.0, 2500) + jitter[0] * (5.0 / 2499),
        np.linspace(0.0, 3.0, 2500) + jitter[1] * (3.0 / 2499),
    )
    paths.update(csv20=str(inputs / "csv20.csv"), csv2500=str(inputs / "csv2500.csv"))
    for name, config in CONFIGS.items():
        (inputs / f"{name}.json").write_text(json.dumps(config))
        paths[name] = str(inputs / f"{name}.json")
    return paths


def run_tree(tree: Path, out: Path, commands, inputs: dict[str, str]) -> None:
    """Byte-compile ``tree`` and run each command in its own directory under ``out``."""
    tree = tree.resolve()
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p),
    )
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(tree / "src"), str(tree / "scripts")],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    for name, argv in commands:
        cwd = out / name
        cwd.mkdir(parents=True)
        args = [a.format(**inputs) for a in argv]
        if args[0].endswith(".py"):
            cmd = [sys.executable, str(tree / "scripts" / args[0]), *args[1:], "--out", "out"]
        else:
            cmd = [sys.executable, "-m", "twoslab.cli", *args, "--out", "out"]
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
        (cwd / "run.log").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        )


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _relative(a: str, b: str) -> float | None:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _columns(path: Path, lines: list[str]) -> tuple[list[str] | None, list[list[str]]]:
    """Column names and per-row fields: a CSV's header and fields, else each line's numbers."""
    if path.suffix == ".csv" and lines:
        return lines[0].split(","), [ln.split(",") for ln in lines]
    return None, [_NUMBER.findall(ln) for ln in lines]


def compare_file(rel: str, a: Path, b: Path) -> list[str]:
    """Report lines for one file present in both trees."""
    if a.read_bytes() == b.read_bytes():
        return [f"{rel}: identical"]
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    names, fa = _columns(a, la)
    _, fb = _columns(b, lb)
    rows = [i for i in range(max(len(la), len(lb))) if i >= len(la) or i >= len(lb) or la[i] != lb[i]]
    report = [f"{rel}: {len(rows)} of {max(len(la), len(lb))} rows differ"]
    for i in rows[:SHOW_ROWS]:
        report.append(f"  row {i + 1} here:  {la[i] if i < len(la) else '(none)'}")
        report.append(f"  row {i + 1} there: {lb[i] if i < len(lb) else '(none)'}")
    if len(rows) > SHOW_ROWS:
        report.append(f"  ... {len(rows) - SHOW_ROWS} more rows")
    worst: dict[str, tuple[float, int]] = {}
    for i in rows:
        if i >= len(fa) or i >= len(fb):
            continue
        for j, (x, y) in enumerate(zip(fa[i], fb[i])):
            change = _relative(x, y)
            column = names[j] if names and j < len(names) else f"number {j + 1}"
            if change and change > worst.get(column, (0.0, 0))[0]:
                worst[column] = (change, i + 1)
    for column, (change, row) in worst.items():
        report.append(f"  largest relative change in {column}: {change:.3g} (row {row})")
    return report


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], dict[str, int]]:
    """Report lines for every file under either directory, and the counts of the summary."""
    files_a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*") if p.is_file()}
    lines: list[str] = []
    counts = {"files": 0, "identical": 0, "differ": 0, "missing": 0}
    for rel in sorted(files_a | files_b):
        counts["files"] += 1
        if rel not in files_a or rel not in files_b:
            counts["missing"] += 1
            lines.append(f"{rel}: only in {'this tree' if rel in files_a else 'the other tree'}")
            continue
        report = compare_file(rel, dir_a / rel, dir_b / rel)
        counts["identical" if report[0].endswith(": identical") else "differ"] += 1
        lines += report
    return lines, counts


def summary(counts: dict[str, int]) -> str:
    return (
        f"artifact_diff: {counts['files']} files, {counts['identical']} identical, "
        f"{counts['differ']} differ, {counts['missing']} in one tree only"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="the other tree")
    ap.add_argument("--work", type=Path, help="keep inputs and outputs here (default: a temporary directory)")
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run only these commands of the list")
    args = ap.parse_args(argv)
    names = [name for name, _ in COMMANDS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        ap.error(f"unknown commands {unknown}; the list is {names}")
    commands = [(n, a) for n, a in COMMANDS if args.only is None or n in args.only]
    if not (args.against / "src" / "twoslab").is_dir():
        ap.error(f"{args.against} holds no src/twoslab")

    work = args.work or Path(tempfile.mkdtemp(prefix="artifact_diff_"))
    try:
        inputs = write_inputs(work / "inputs")
        run_tree(ROOT, work / "this", commands, inputs)
        run_tree(args.against, work / "other", commands, inputs)
        lines, counts = compare(work / "this", work / "other")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines + [summary(counts)]))
    return 0 if counts["identical"] == counts["files"] else 1


if __name__ == "__main__":
    sys.exit(main())
