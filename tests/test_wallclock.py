"""Wall-clock gates measured in a fresh interpreter.

A warm process hides first-call costs (imports already done, caches
filled), so each gate runs in its own child process.  Import time is
excluded from the timed region; only the computation is gated.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import twoslab

# the directory this process imported the package from, so the child times the same code
PACKAGE_DIR = Path(twoslab.__file__).resolve().parents[1]

PROBE = """
import json, time
from twoslab.basis import build_basis, slab_matrix
from twoslab.bilayer2d import find_modes_2d
from twoslab.core import Material, SlabSystem, uniform_grid

cu, mo = Material(K=3.42, kappa=0.838), Material(K=1.05, kappa=0.339)
t0 = time.perf_counter()
basis = build_basis(SlabSystem(b=5.0, a=3.0, mat_b=cu, mat_a=mo), 2000)
t1 = time.perf_counter()
plate = find_modes_2d(SlabSystem(b=1.0, a=1.0, mat_b=cu, mat_a=mo, c=1.0), 1000.0)
t2 = time.perf_counter()
grid = uniform_grid(basis.sys, 5000)
t3 = time.perf_counter()
shapes = [slab_matrix(basis, grid.nodes_b, "b", 2000).shape,
          slab_matrix(basis, grid.nodes_a, "a", 2000).shape]
t4 = time.perf_counter()
print(json.dumps({"basis_s": t1 - t0, "basis_modes": len(basis),
                  "plate_s": t2 - t1, "plate_modes": len(plate),
                  "matrices_s": t4 - t3, "matrix_shapes": shapes}))
"""


def test_cold_process_build_basis_and_plate_modes():
    path = os.pathsep.join(p for p in (str(PACKAGE_DIR), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    got = json.loads(proc.stdout)
    assert got["basis_modes"] == 2000 and got["basis_s"] < 1.0, got
    assert got["plate_modes"] > 0 and got["plate_s"] < 0.5, got
    # both mode matrices at the stress size, 5000 equispaced nodes per slab x 2000 modes
    assert got["matrix_shapes"] == [[5000, 2000], [5000, 2000]] and got["matrices_s"] < 1.0, got
