"""The command line runs on numpy alone and builds no Gauss-Legendre rule.

A fresh interpreter blocks ``import scipy`` before importing the package,
then runs every subcommand in process.  It reports each exit code and
the miss count of the basis' Gauss-Legendre cache after the command.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    sys.modules["scipy"] = None  # any import of scipy now raises ImportError

    import numpy as np
    import twoslab.basis
    import twoslab.cli as cli
    from twoslab.core import SampledField, uniform_grid

    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    s = cli.default_config("1").system()
    grid = uniform_grid(s, 40)
    initial = SampledField(grid, 1.0 + 0.1 * grid.nodes_b, 1.0 - 0.1 * grid.nodes_a, s.t0)
    cli.write_field_csv(initial, out / "initial.csv")

    commands = {
        "eigen": ["eigen"],
        "example1": ["example", "1"],
        "example2": ["example", "2"],
        "example3": ["example", "3"],
        "example2d": ["example", "2d"],
        "table1": ["table", "1"],
        "forward": ["forward", "--infile", str(out / "initial.csv")],
        "backward": ["backward", "--infile", str(out / "forward" / "forward.csv"),
                     "--eps", "1e-4"],
        "check-bounds": ["check-bounds", "--trials", "2"],
    }
    report = {}
    for name, argv in commands.items():
        code = cli.main(argv + ["--out", str(out / name)])
        report[name] = [code, twoslab.basis._leggauss.cache_info().misses]
    report["scipy_loaded"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                                    and sys.modules[m] is not None)
    print(json.dumps(report))
    """
)


def test_cli_runs_without_scipy_and_without_gauss_legendre(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report.pop("scipy_loaded") == []
    for name, (code, misses) in report.items():
        assert code == 0, f"{name} exited {code}: {proc.stderr}"
        assert misses == 0, f"{name} built a Gauss-Legendre rule"
    assert len(report) == 9
