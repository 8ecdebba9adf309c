"""Per-operation correctness checks.

Each check returns None when the output is right and a one-line reason
when it is not.  A reason makes the operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tracing import roots_in_bracket

# Unit-material roots are k pi / (a + b) exactly; the solver refines to 1e-12.
EXACT_ROOT_TOL = 1e-8

# |interface determinant| relative to K_b nu_b + K_a nu_a at a 2D root.
DETERMINANT_TOL = 1e-8

# Projection reconstructions must stay within this multiple of the noise-gap estimate.
NOISE_GAP_FACTOR = 4.0

# Per-slab solves may exceed their perturbation bound by this factor (round-off in the solve).
PERTURBATION_FACTOR = 4.0

# Relative coefficient error a backward-stable solve may add per unit of condition number.
SOLVE_ROUNDOFF = 1e-13

# Noise-free outputs may differ from the exact series by round-off only.
ROUNDOFF_TOL = 1e-8


def check_roots(sys_, lambda_bs, count: int, exact: bool = False) -> str | None:
    """Root count, closed-form bracket per index and, on unit materials, exact values."""
    if len(lambda_bs) != count:
        return f"{len(lambda_bs)} roots for {count} requested"
    inside = roots_in_bracket(sys_, lambda_bs)
    if inside != count:
        return f"{count - inside} of {count} roots outside their bracket"
    if exact:
        step = math.pi / (sys_.a + sys_.b)
        dev = max(abs(lam - n * step) for n, lam in enumerate(lambda_bs))
        if dev > EXACT_ROOT_TOL:
            return f"max deviation {dev:.3e} from k pi/(a+b)"
    return None


def check_basis(sys_, count: int, basis, exact: bool = False) -> str | None:
    """Roots as in check_roots, plus finite positive norms N_n and M_n (M_0 = 0)."""
    reason = check_roots(sys_, [m.pair.lambda_b for m in basis.modes], count, exact)
    if reason:
        return reason
    for m in basis.modes:
        if not (math.isfinite(m.norm_N) and m.norm_N > 0):
            return f"mode {m.pair.n}: norm N = {m.norm_N!r}"
        if not math.isfinite(m.norm_M) or m.norm_M < 0 or (m.pair.n > 0 and m.norm_M == 0):
            return f"mode {m.pair.n}: norm M = {m.norm_M!r}"
    return None


def check_modes_2d(sys_, n_eps: float, basis2d) -> str | None:
    """Ascending decay rates within the cut-off, consistent layers, small determinant."""
    kb, ka = sys_.mat_b.kappa, sys_.mat_a.kappa
    Kb, Ka = sys_.mat_b.K, sys_.mat_a.K
    if len(basis2d) == 0:
        return "no 2D modes"
    prev = -math.inf
    for md in basis2d.modes:
        lam = md.lambda_bar
        if not (math.isfinite(lam) and prev <= lam <= n_eps * (1 + 1e-12)):
            return f"mode ({md.m},{md.n}): lambda_bar {lam!r} out of order or above {n_eps}"
        prev = lam
        other = ka * (md.nu_a**2 + md.mu**2)
        if abs(other - lam) > 1e-9 * max(1.0, lam):
            return f"mode ({md.m},{md.n}): layers disagree on lambda_bar"
        det = Kb * md.nu_b * math.sin(md.nu_b * sys_.b) * math.cos(md.nu_a * sys_.a) + (
            Ka * md.nu_a * math.sin(md.nu_a * sys_.a) * math.cos(md.nu_b * sys_.b)
        )
        scale = Kb * md.nu_b + Ka * md.nu_a
        if abs(det) > DETERMINANT_TOL * max(scale, 1e-300):
            return f"mode ({md.m},{md.n}): determinant residual {abs(det):.3e}"
    return None


def l2_sq(grid, values_b, values_a) -> float:
    """Squared discrete L2 (trapezoid) norm over both slabs."""
    return float(np.trapezoid(values_b**2, grid.nodes_b) + np.trapezoid(values_a**2, grid.nodes_a))



def noise_gap_rhs(sys_, n_eps: float, eps: float, t: float) -> float:
    """Right-hand side of the noise-gap estimate for noise budget eps at time t."""
    w_b = sys_.mat_b.K / sys_.mat_b.kappa
    w_a = sys_.mat_a.K / sys_.mat_a.kappa
    return (
        n_eps * math.exp(2.0 * n_eps * (sys_.tf - t)) * (w_b + w_a) * eps**2
        / min(w_b, w_a, 1.0)
    )


def check_field(field, exp_b, exp_a, allowed_sq: float) -> str | None:
    """Finite values on the request grid within sqrt(allowed_sq) of the expected series."""
    if field.values_b.shape != exp_b.shape or field.values_a.shape != exp_a.shape:
        return "output grid differs from the request grid"
    if not (np.all(np.isfinite(field.values_b)) and np.all(np.isfinite(field.values_a))):
        return "non-finite values"
    err_sq = l2_sq(field.grid, field.values_b - exp_b, field.values_a - exp_a)
    if not err_sq <= allowed_sq:
        return f"L2 error {math.sqrt(err_sq):.3e} exceeds {math.sqrt(allowed_sq):.3e}"
    return None


def propagated_allowance_sq(P_b, P_a, nodes_b, nodes_a, amp, dc_b: float, dc_a: float) -> float:
    """Bound on the squared trapezoid L2 norm of sum_n e_n amp_n phi_n when ||e|| <= dc per slab.

    P_b, P_a hold phi_n on the output nodes (one column per mode).  By
    Cauchy-Schwarz the squared norm is at most ||e||^2 sum_n amp_n^2 ||phi_n||^2.
    """
    norms_b = np.trapezoid(P_b**2, nodes_b, axis=0)
    norms_a = np.trapezoid(P_a**2, nodes_a, axis=0)
    return dc_b**2 * float(np.sum(amp**2 * norms_b)) + dc_a**2 * float(np.sum(amp**2 * norms_a))


def roundoff_bound(A, coeffs, normal_equations: bool = False) -> float:
    """Bound on ||delta c|| that round-off in a backward-stable solve with matrix A adds.

    Relative to the coefficients it grows with the condition number of A,
    squared when the solve goes through the normal equations.
    """
    cond_sq = np.linalg.cond(A.T @ A)  # cond(A)^2, from a small matrix
    cond = cond_sq if normal_equations else math.sqrt(cond_sq)
    return SOLVE_ROUNDOFF * cond * float(np.linalg.norm(coeffs))


def trapezoid_weights(nodes) -> np.ndarray:
    w = np.zeros(len(nodes))
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def roundoff_allowance_sq(sys_, exp_b, exp_a) -> float:
    """Squared L2 allowance for round-off on an output of the given size."""
    scale = max(1.0, float(np.max(np.abs(exp_b))), float(np.max(np.abs(exp_a))))
    return (ROUNDOFF_TOL * scale) ** 2 * (sys_.a + sys_.b)


# ---------------------------------------------------------------------------
# CLI artifacts


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def artifact_problems(out_dir: Path) -> str | None:
    """Every CSV cell that parses as a number is finite; JSON holds no NaN or Infinity."""
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    if not files:
        return "no artifacts written"
    for path in files:
        text = path.read_text()
        if path.suffix == ".json":
            try:
                json.loads(text, parse_constant=_reject_constant)
            except ValueError as exc:
                return f"{path.name}: {exc}"
            continue
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # slab letters and bound names
                if not math.isfinite(value):
                    return f"{path.name}: non-finite value {cell}"
    return None


def artifact_digest(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def read_csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_invocation(returncode: int, out_dir: Path, expected_files: tuple[str, ...]) -> str | None:
    """Exit code 0, presence of the expected artifacts and their finiteness."""
    if returncode != 0:
        return f"exit code {returncode}, expected 0"
    missing = [f for f in expected_files if not (out_dir / f).is_file()]
    if missing:
        return f"missing artifacts {missing}"
    return artifact_problems(out_dir)
