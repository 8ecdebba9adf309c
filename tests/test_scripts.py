"""The scripts under scripts/ run in a fresh interpreter and fail closed.

Each script is started with RuntimeWarning as an error, and with the
directory this test process imported ``twoslab`` from first on its
``PYTHONPATH``, so the scripts run the package under test: the checkout's
``src`` in a source tree, the installed package where one is tested.  A
refused run exits with the CLI's code (1 bad input, 2 numerical failure),
prints one line on stderr and no traceback, and writes nothing.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoslab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(twoslab.__file__).resolve().parents[1]

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _run(script, *args, cwd):
    path = os.pathsep.join(p for p in (str(PACKAGE_DIR), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )


@pytest.mark.parametrize(
    "script,args,code,message",
    [
        ("run_all.py", ["--seed", "-1"], 1, "error: seed must be non-negative"),
        ("noise_sweep.py", ["--eps", "2"], 1, "error: config.eps_list must hold values in (0, 1)"),
        (
            "noise_sweep.py",
            ["--eps", "0.01", "0.010000000000001"],
            1,
            "error: config.eps_list entries must have distinct labels, "
            "got ['eps_1e-2', 'eps_1e-2']",
        ),
        # 1e-150 keeps so many plate modes that the square slice solves are refused
        (
            "noise_sweep.py",
            ["--example", "2d", "--eps", "1e-150"],
            2,
            "numerical failure: design matrix numerically rank deficient",
        ),
    ],
    ids=["negative-seed", "eps-outside-0-1", "one-label-twice", "rank-deficient-slice"],
)
def test_refusal_exits_with_one_message_line(tmp_path, script, args, code, message):
    proc = _run(script, *args, "--out", "bad", cwd=tmp_path)
    assert proc.returncode == code
    [line] = proc.stderr.splitlines()
    assert line.startswith(message)
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not (tmp_path / "bad").exists()


def test_run_all_writes_every_artifact(tmp_path):
    proc = _run("run_all.py", "--trials", "1", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.relative_to(tmp_path / "out").as_posix()
                     for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert len(written) == 19
    assert {p.split("/")[0] for p in written} == {
        "bounds.csv", "example1", "example2", "example3", "example2d",
    }
    # no run exits 0 with NaN or inf in an artifact
    for name in written:
        path = tmp_path / "out" / name
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_refuse_constant)
            continue
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # slab letters and bound names
                    assert math.isfinite(value), (name, row)


def _refuse_constant(name):
    raise AssertionError(f"JSON holds {name}")


@pytest.mark.parametrize("example", ["1", "2", "3", "2d"])
def test_noise_sweep_writes_one_row_per_eps(tmp_path, example):
    proc = _run(
        "noise_sweep.py", "--example", example, "--eps", "1e-2", "1e-4", "--out", "out",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / f"sweep_example{example}.csv").read_text().splitlines()
    assert rows[0] == "epsilon,n_eps,retained_modes,l2_error_vs_initial"
    assert [r.split(",")[0] for r in rows[1:]] == ["0.01", "0.0001"]
    assert all(math.isfinite(float(r.split(",")[3])) for r in rows[1:]), rows
