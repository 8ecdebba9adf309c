"""Release gate: the shipped claims, one test each, pinned tolerances.

Every test prints a single ``ACCEPTANCE n: PASS/FAIL`` line so the suite
log doubles as the verification report.  Tolerances here are frozen;
loosening one is a release decision, not a test fix.
"""

import filecmp
import math
import time

import numpy as np
import pytest

import oracles
from twoslab.basis import build_basis, norm_M_closed, norm_N_closed, weighted_gram
from twoslab.cli import default_config, run_example, write_example_outputs
from twoslab.core import RegParams, SampledField, uniform_grid
from twoslab.evolve import (
    SourceCoefficients,
    admissible_set,
    cutoff_reconstruct,
    forward_solve,
    nonhomogeneous_solve,
    source_compatibility,
)
from twoslab.spectral import (
    CoeffVector,
    project_coefficients,
    recover_coefficients,
    synthesize,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _initial_b(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > -2.5, x, -2.5)


def _initial_a(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 1.5, -x, -1.5)


@pytest.fixture(scope="module")
def ex1():
    return run_example("1", default_config("1"))


@pytest.fixture(scope="module")
def ex2():
    return run_example("2", default_config("2"))


@pytest.fixture(scope="module")
def ex3():
    return run_example("3", default_config("3"))


@pytest.fixture(scope="module")
def ex2d():
    return run_example("2d", default_config("2d"))


def test_criterion_01_explicit_eigenvalues(sys_explicit):
    t0 = time.perf_counter()
    basis = build_basis(sys_explicit, 51)
    elapsed = time.perf_counter() - t0
    ks = np.arange(51)
    lam_b = np.array([m.pair.lambda_b for m in basis.modes])
    dev = float(np.max(np.abs(lam_b - ks * math.pi / 8.0)))
    last = lam_b[50]
    ok = dev <= 1e-8 and round(last, 5) == 19.63495 and elapsed < 1.0
    _verdict(1, ok, f"max dev {dev:.2e}, lambda_b50 {last:.7f}, {elapsed:.2f}s")


def test_criterion_02_orthogonality_and_norms(sys_cm, sys_explicit):
    t_start = time.perf_counter()
    worst_off = 0.0
    worst_norm = 0.0
    worst_rate = 0.0
    for sys in (sys_cm, sys_explicit):
        basis = build_basis(sys, 51)
        G = weighted_gram(basis)
        N = np.array([m.norm_N for m in basis.modes])
        scale = np.sqrt(np.outer(N, N))
        off = np.abs(G - np.diag(np.diag(G))) / scale
        worst_off = max(worst_off, float(np.max(off)))
        for n, mode in enumerate(basis.modes):
            qN, qM = oracles.norms_quadrature(basis, n)
            worst_norm = max(worst_norm, abs(mode.norm_N - qN) / qN)
            if n > 0:
                worst_norm = max(worst_norm, abs(mode.norm_M - qM) / qM)
                if not mode.degenerate_interface:
                    cN = norm_N_closed(sys, mode.pair)
                    cM = norm_M_closed(sys, mode.pair)
                    worst_norm = max(worst_norm, abs(cN - qN) / qN, abs(cM - qM) / qM)
                worst_rate = max(
                    worst_rate,
                    abs(mode.norm_M - mode.pair.lambda_bar * mode.norm_N) / mode.norm_M,
                )
            else:
                worst_norm = max(worst_norm, abs(mode.norm_M))
    elapsed = time.perf_counter() - t_start
    ok = worst_off <= 1e-8 and worst_norm <= 1e-8 and worst_rate <= 1e-10 and elapsed < 10.0
    _verdict(
        2,
        ok,
        f"off-diag {worst_off:.2e}, norms {worst_norm:.2e}, "
        f"M=lamN {worst_rate:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_noise_free_round_trip(sys_cm, basis_cm):
    # least-squares inverts the collocation system exactly on spanned
    # data; the projection route carries trapezoid quadrature error, so
    # it gets the finer measurement grid its O(h^2) accuracy needs
    reg = RegParams.from_rule(1e-4, 0.05, 0.5, sys_cm.tf)
    m = len(admissible_set(basis_cm, reg.n_eps))
    rels = {}
    for policy, n_nodes in (("least-squares", 40), ("projection", 160)):
        grid = uniform_grid(sys_cm, n_nodes)
        init = SampledField(
            grid, _initial_b(grid.nodes_b), _initial_a(grid.nodes_a), sys_cm.t0
        )
        if policy == "projection":
            coeffs = project_coefficients(basis_cm, init, m)
        else:
            coeffs = recover_coefficients(basis_cm, init, m, policy=policy)
        projected = synthesize(basis_cm, coeffs, sys_cm.tf, grid)  # plain series
        final = forward_solve(basis_cm, init, grid, m, policy=policy)
        recon = cutoff_reconstruct(basis_cm, final, reg, sys_cm.t0, policy=policy)
        num = np.trapezoid((recon.values_b - projected.values_b) ** 2, grid.nodes_b)
        num += np.trapezoid((recon.values_a - projected.values_a) ** 2, grid.nodes_a)
        den = np.trapezoid(projected.values_b**2, grid.nodes_b)
        den += np.trapezoid(projected.values_a**2, grid.nodes_a)
        rels[policy] = math.sqrt(num / den)
    worst = max(rels.values())
    detail = ", ".join(f"{p} {r:.2e}" for p, r in rels.items())
    _verdict(3, worst <= 1e-6, f"relative L2 over {m} modes: {detail}")


def test_criterion_04_bound_suite():
    from twoslab.cli import RunConfig, check_bounds

    records = check_bounds(RunConfig(), trials=100)
    bad = [r for r in records if not r.ok]
    ok = len(records) == 2800 and not bad
    _verdict(4, ok, f"{len(records)} checks, {len(bad)} violations")


def test_criterion_05_piecewise_table(ex2):
    xs = ex2.table.xs
    gp = ex2.config.grid_points
    exact = ex2.table.column("exact")
    recon = ex2.table.column("eps_1e-6")
    i263 = int(np.argmin(np.abs(xs[:gp] + 2.63)))
    i142 = gp + int(np.argmin(np.abs(xs[gp:] - 1.42)))
    targets = [(0, -2.5), (i263, -2.5), (i142, -1.42105), (2 * gp - 1, -1.5)]
    dev = max(abs(exact[i] - want) / abs(want) for i, want in targets)
    edge = max(abs(recon[0] - exact[0]), abs(recon[-1] - exact[-1]))
    ok = dev <= 1e-4 and edge <= 1e-2
    _verdict(5, ok, f"exact column dev {dev:.2e}, boundary recon error {edge:.2e}")


def test_criterion_06_pulse_table(ex3):
    gp = ex3.config.grid_points
    exact = ex3.table.column("exact")
    plateau_dev = float(np.max(np.abs(exact[:gp] - 20405.72792) / 20405.72792))
    right_max = ex3.metadata["per_eps"]["eps_1e-6"]["right_slab_max_abs"]
    ok = plateau_dev <= 1e-4 and right_max < 1e-3
    _verdict(6, ok, f"plateau dev {plateau_dev:.2e}, right-slab max {right_max:.2e}")


def test_criterion_07_single_mode_stability(ex1):
    per = ex1.metadata["per_eps"]
    v4 = per["eps_1e-4"]["value_at_interface_right"]
    v6 = per["eps_1e-6"]["value_at_interface_right"]
    ratio = ex1.metadata["unregularized_max_abs"] / ex1.metadata["regularized_max_abs"]
    ok = abs(v4 - v6) < 1e-2 and ratio >= 10.0
    _verdict(7, ok, f"|recon(1e-4)-recon(1e-6)| = {abs(v4 - v6):.2e}, raw/reg ratio {ratio:.1e}")


def test_criterion_08_error_monotone_in_eps(ex2, ex3, ex2d):
    worst = 0.0
    for res in (ex2, ex3, ex2d):
        errs = [
            res.metadata["per_eps"][f"eps_1e{k}"]["l2_error_vs_initial"]
            for k in (-2, -4, -6)
        ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            worst = max(worst, lo / hi)
    ok = worst <= 1.1  # non-increasing with 10% slack
    _verdict(8, ok, f"worst successive error ratio {worst:.3f}")


def test_criterion_09_forward_matches_finite_differences(sys_cm):
    basis = build_basis(sys_cm, 8)
    cv = project_coefficients(basis, (_initial_b, _initial_a), 7)
    c = cv.c_b

    def u0(x):
        return sum(c[n] * basis.phi(n, x) for n in range(7))

    x, u_cn = oracles.cn_composite(sys_cm, u0, sys_cm.tf, h=1.0 / 32.0, dt=1e-4)
    lam = basis.lambda_bars()[:7]
    u_spec = sum(
        c[n] * math.exp(-lam[n] * sys_cm.window) * basis.phi(n, x) for n in range(7)
    )
    rel = math.sqrt(
        float(np.trapezoid((u_spec - u_cn) ** 2, x) / np.trapezoid(u_cn**2, x))
    )
    _verdict(9, rel <= 1e-2, f"relative L2 vs Crank-Nicolson {rel:.2e}")


def test_criterion_10_source_terms(sys_cm, basis_cm, grid_cm):
    n, C, d = 2, 0.7, 0.3
    lam = basis_cm.modes[n].pair.lambda_bar
    times = np.linspace(sys_cm.t0, sys_cm.tf, 101)
    rows = np.zeros((101, 8))
    rows[:, n] = d
    src = SourceCoefficients(times=times, d_b=rows.copy(), d_a=rows.copy())
    cvec = np.zeros(8)
    cvec[n] = C
    out = nonhomogeneous_solve(
        basis_cm, CoeffVector(basis=basis_cm, c_b=cvec, c_a=cvec.copy()), src,
        sys_cm.t0, grid_cm,
    )
    w = sys_cm.window
    closed = C * math.exp(lam * w) - d * (math.exp(lam * w) - 1.0) / lam
    source_err = float(
        np.max(np.abs(out.values_b - closed * basis_cm.phi(n, grid_cm.nodes_b)))
    ) / abs(closed)

    g_left = lambda x: np.cos(np.asarray(x, dtype=float)) + 0.2 * np.asarray(x, dtype=float)
    f_b, f_a = oracles.legendre_matched_source(basis_cm, 6, g_left)
    compat = float(np.max(source_compatibility(basis_cm, f_b, f_a, mode_count=6)))
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    incompat = float(source_compatibility(basis_cm, one, zero)[0])
    ok = source_err <= 1e-8 and compat <= 1e-8 and incompat >= 0.5
    _verdict(
        10,
        ok,
        f"closed-form err {source_err:.2e}, compatible residual {compat:.2e}, "
        f"incompatible residual {incompat:.3f}",
    )


def test_criterion_11_byte_identical_runs(tmp_path):
    cfg = default_config("2")
    dirs = []
    for name in ("r1", "r2"):
        result = run_example("2", cfg)
        dirs.append(write_example_outputs(result, tmp_path / name))
    names = sorted(p.name for p in dirs[0].iterdir())
    same = all(filecmp.cmp(dirs[0] / n, dirs[1] / n, shallow=False) for n in names)
    _verdict(11, same, f"{len(names)} artifacts byte-compared")
