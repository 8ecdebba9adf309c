"""Measure how often the package's own scripts repeat a request within one process.

    python3 perfbench/repeat_share.py

Runs ``scripts/run_all.py`` and ``scripts/noise_sweep.py`` (once per
example) in this process, each run standing for its own process, with counting
wrappers where ``twoslab.cli`` looks the package functions up.  A call
is a repeat when its arguments equal those of an earlier call of the
same function in the same script run: that is what a cache of the
function's results could answer.  The shares it prints are the repeat
shares the ``spectrum`` and ``reconstruct`` workloads use
(``workloads.SPECTRUM_REPEAT_SHARE`` and ``RECONSTRUCT_REPEAT_SHARE``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import runpy
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import twoslab.cli  # noqa: E402

# function looked up in twoslab.cli -> the workload whose operations it stands for
SITES = {
    "build_basis": "spectrum",
    "find_modes_2d": "spectrum",
    "cutoff_reconstruct": "reconstruct",
    "forward_solve": "reconstruct",
    "recover_slice_coefficients": "reconstruct",
}

# one entry per process the scripts would run in
SCRIPT_RUNS = [("run_all.py", ["--trials", "2"])] + [
    ("noise_sweep.py", ["--example", ex]) for ex in ("1", "2", "3", "2d")
]


def request_key(x):
    """A hashable value equal for equal arguments; callables compare by identity."""
    if isinstance(x, np.ndarray):
        return ("array", x.shape, hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(request_key(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(request_key(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, request_key(v)) for k, v in x.items()))
    if callable(x):
        return ("callable", id(x))
    return x


def measure(errors: list[str]) -> dict[str, tuple[int, int]]:
    """Workload -> (calls, repeated calls) pooled over all script runs; errors of runs that raised."""
    calls: Counter = Counter()
    repeats: Counter = Counter()
    saved = {name: getattr(twoslab.cli, name) for name in SITES}
    seen: set = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            key = (name, request_key(args), request_key(kwargs))
            calls[SITES[name]] += 1
            repeats[SITES[name]] += key in seen
            seen.add(key)
            return fn(*args, **kwargs)

        return wrapper

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=work))
    argv = sys.argv
    try:
        for name, fn in saved.items():
            setattr(twoslab.cli, name, counting(name, fn))
        for script, args in SCRIPT_RUNS:
            seen.clear()
            sys.argv = [script] + args + ["--out", str(out)]
            try:
                runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
            except SystemExit:
                pass  # the scripts end with sys.exit(code); the calls are counted either way
            except Exception as exc:  # noqa: BLE001 - a run that raises still made its calls
                errors.append(f"{script} {' '.join(args)}: {type(exc).__name__}: {exc}")
    finally:
        sys.argv = argv
        for name, fn in saved.items():
            setattr(twoslab.cli, name, fn)
        shutil.rmtree(out, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    return {w: (calls[w], repeats[w]) for w in sorted(set(SITES.values()))}


def main() -> int:
    errors: list[str] = []
    devnull = open(os.devnull, "w")
    stdout, sys.stdout = sys.stdout, devnull
    try:
        result = measure(errors)
    finally:
        sys.stdout = stdout
        devnull.close()
    for workload, (n, rep) in result.items():
        print(f"{workload:12s} {rep:3d} repeats of {n:3d} calls: share {rep / n:.4f}")
    for e in errors:
        print(f"raised (calls before it are counted): {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
