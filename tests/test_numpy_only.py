"""The command line runs on numpy alone, warns about nothing and builds no Gauss-Legendre rule.

A fresh interpreter, with RuntimeWarning as an error, blocks ``import
scipy`` before importing the package, then runs every subcommand in
process.  It reports each exit code, the miss count of the basis'
Gauss-Legendre cache after the command, the command's own calls of
``basis._mode_norms`` (a plate's basis derives no norms) and how many
times a basis computed its record array ``EigenBasis.modes`` (the
writers read columns), which modules
of the test harness or the test-only dependencies the commands loaded,
and the file it imported ``twoslab`` from.  The child's ``PYTHONPATH`` is the
directory this test process imported the package from, so it runs the
package under test (the installed one, where one is tested), and the
two files must be the same.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import twoslab

PACKAGE_DIR = Path(twoslab.__file__).resolve().parents[1]

CHILD = textwrap.dedent(
    """
    import json, sys
    from functools import cached_property
    from pathlib import Path

    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    DENIED = {"scipy", "mpmath", "pytest", "_pytest", "hypothesis"}

    import numpy as np
    import twoslab
    import twoslab.basis
    import twoslab.cli as cli
    import twoslab.spectral
    from twoslab.core import SampledField, uniform_grid

    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    s = cli.default_config("1").system()
    grid = uniform_grid(s, 40)
    initial = SampledField(grid, 1.0 + 0.1 * grid.nodes_b, 1.0 - 0.1 * grid.nodes_a, s.t0)
    cli.write_field_csv(initial, out / "initial.csv")
    # the paper's plate reaches only m = 0; this cut-off keeps 8 modes, m = 1 among them
    (out / "plate-m1.json").write_text('{"beta": 0.2, "gamma": 1.0, "eps_list": [1e-6]}')
    # example 3's per-slab least-squares fits on a grid that takes the compressed solve
    wide = twoslab.spectral.COMPRESSED_MIN_NODES + 1
    (out / "wide-grid.json").write_text(json.dumps({"grid_points": wide}))

    commands = {
        "eigen": ["eigen"],
        "example1": ["example", "1"],
        "example2": ["example", "2"],
        "example3": ["example", "3"],
        "example3-wide": ["example", "3", "--config", str(out / "wide-grid.json")],
        "example2d": ["example", "2d"],
        "example2d-m1": ["example", "2d", "--config", str(out / "plate-m1.json")],
        "table1": ["table", "1"],
        "forward": ["forward", "--infile", str(out / "initial.csv")],
        "backward": ["backward", "--infile", str(out / "forward" / "forward.csv"),
                     "--eps", "1e-4"],
        "check-bounds": ["check-bounds", "--trials", "2"],
    }
    def counted(real, calls):
        return lambda *a: calls.append(1) or real(*a)

    norm_calls, modes_reads = [], []
    twoslab.basis._mode_norms = counted(twoslab.basis._mode_norms, norm_calls)
    Basis = twoslab.basis.EigenBasis
    Basis.modes = cached_property(counted(Basis.modes.func, modes_reads))
    Basis.modes.__set_name__(Basis, "modes")
    report = {}
    for name, argv in commands.items():
        norm_calls.clear()
        modes_reads.clear()
        code = cli.main(argv + ["--out", str(out / name)])
        report[name] = [
            code, twoslab.basis._leggauss.cache_info().misses, len(norm_calls), len(modes_reads)
        ]
    report["twoslab_file"] = twoslab.__file__
    report["denied_loaded"] = sorted(m for m in sys.modules if m.split(".")[0] in DENIED
                                     and sys.modules[m] is not None)
    print(json.dumps(report))
    """
)


def test_cli_runs_without_scipy_and_without_gauss_legendre(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report.pop("denied_loaded") == []
    assert Path(report.pop("twoslab_file")).resolve() == Path(twoslab.__file__).resolve()
    for name, (code, misses, norm_calls, modes_reads) in report.items():
        assert code == 0, f"{name} exited {code}: {proc.stderr}"
        assert misses == 0, f"{name} built a Gauss-Legendre rule"
        assert modes_reads == 0, f"{name} read EigenBasis.modes {modes_reads} times"
        if name.startswith("example2d") or name == "eigen":
            assert norm_calls == 0, f"{name} evaluated mode norms {norm_calls} times"
    assert len(report) == 11
