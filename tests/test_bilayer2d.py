import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from twoslab.basis import _interface_amplitudes, build_basis
from twoslab.bilayer2d import (
    REFINE_TOL,
    SCAN_STEP,
    EvanescentBranchError,
    Mode2D,
    eigen_f_2d,
    find_modes_2d,
    nu_a_of,
    phi_2d,
    reconstruct_2d_slice,
    recover_slice_coefficients,
    slice_matrix,
    synthesize_slice,
    y_mode,
)
from twoslab.core import (
    Material,
    RankDeficientError,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    uniform_grid,
)
from twoslab.eigensolver import eigen_f, scan_roots

# enumeration thresholds with hand-checked mode inventories
PAIRS_SMALL = [(0, 0)]
PAIRS_TWO = [(0, 0), (0, 1)]
PAIRS_60 = [
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (0, 4), (1, 2),
    (0, 5), (2, 0), (1, 3), (2, 1), (0, 6), (1, 4), (2, 2),
]


def test_determinant_reduces_to_slab_problem_at_mu_zero(sys_2d):
    nu = np.linspace(0.05, 3.0, 57)
    got = eigen_f_2d(nu, 0.0, sys_2d)
    want = nu * math.sqrt(sys_2d.mat_b.kappa) * eigen_f(nu, sys_2d)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("unit", [False, True])
def test_mu_zero_modes_take_the_slab_amplitudes(sys_2d, unit):
    # at m = 0 the plate's x-factors are the slab eigenfunctions, so both
    # must carry the same amplitudes; unit materials on equal layers make
    # every odd mode degenerate, which exercises the null-vector branch
    sys = sys_2d
    if unit:
        sys = dataclasses.replace(sys, mat_b=Material(1.0, 1.0), mat_a=Material(1.0, 1.0))
    basis2d = find_modes_2d(sys, 60.0)
    assert np.array_equal(basis2d.lambda_bars(), [md.lambda_bar for md in basis2d.modes])
    plate = sorted((md for md in basis2d.modes if md.m == 0), key=lambda md: md.n)
    basis = build_basis(sys, len(plate))
    assert [md.degenerate_interface for md in plate] == [
        md.degenerate_interface for md in basis.modes
    ]
    assert any(md.degenerate_interface for md in plate) == unit
    assert np.allclose([md.nu_b for md in plate], basis.lambda_b, rtol=0, atol=1e-9)
    # the null vector's sign comes from a component that cannot vanish, so even
    # a |theta_b| = |theta_a| mode matches without any sign normalisation
    amp = np.array([[md.amp_b, md.amp_a] for md in plate])
    assert np.allclose(amp, np.column_stack([basis.amp_b, basis.amp_a]), rtol=1e-8, atol=1e-8)
    # and every plate mode, degenerate or not, meets both interface conditions
    for md in basis2d.modes:
        left, right = md.amp_b * math.cos(md.nu_b * sys.b), md.amp_a * math.cos(md.nu_a * sys.a)
        assert left == pytest.approx(right, abs=1e-8 * max(1.0, abs(right)))
        flux_b = -sys.mat_b.K * md.amp_b * md.nu_b * math.sin(md.nu_b * sys.b)
        flux_a = sys.mat_a.K * md.amp_a * md.nu_a * math.sin(md.nu_a * sys.a)
        assert flux_b == pytest.approx(flux_a, abs=1e-8 * max(1.0, abs(flux_a)))


def test_nu_a_equal_diffusivity_limit():
    sys = SlabSystem(b=1.0, a=1.0, c=1.0,
                     mat_b=Material(K=2.0, kappa=0.5),
                     mat_a=Material(K=1.0, kappa=0.5))
    nu = np.linspace(0.0, 4.0, 9)
    assert np.allclose(nu_a_of(nu, 2.0, sys), nu, atol=1e-14)
    assert nu_a_of(1.5, 0.7, sys) == pytest.approx(1.5, abs=1e-14)


def test_nu_a_rejects_evanescent_branch():
    # slower-diffusing left layer: small nu_b has no oscillatory partner
    sys = SlabSystem(b=1.0, a=1.0, c=1.0,
                     mat_b=Material(K=1.05, kappa=0.339),
                     mat_a=Material(K=3.42, kappa=0.838))
    with pytest.raises(EvanescentBranchError):
        nu_a_of(0.1, math.pi, sys)


def test_y_modes_orthonormal(sys_2d):
    c = sys_2d.c
    assert y_mode(0, 0.37, c) == pytest.approx(math.sqrt(1.0 / c), rel=1e-14)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    ys = 0.5 * c * (nodes + 1.0)
    ws = 0.5 * c * weights
    for m in range(5):
        for n in range(5):
            val = np.sum(ws * y_mode(m, ys, c) * y_mode(n, ys, c))
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)


def test_mode_enumeration_matches_brute_force(sys_2d):
    for n_eps, pairs in ((0.46052, PAIRS_SMALL), (1.38155, PAIRS_TWO), (60.0, PAIRS_60)):
        basis2d = find_modes_2d(sys_2d, n_eps)
        assert [(md.m, md.n) for md in basis2d.modes] == pairs
        brute = oracles.brute_modes_2d(sys_2d, n_eps)
        assert [(bm, bn) for bm, bn, _, _, _ in brute] == pairs
        for md, (_, _, mu, nu_b, lam) in zip(basis2d.modes, brute):
            assert md.mu == pytest.approx(mu, abs=1e-14)
            assert md.nu_b == pytest.approx(nu_b, abs=1e-9)
            assert md.lambda_bar == pytest.approx(lam, rel=1e-9, abs=1e-9)


def test_mode_zero_is_exact_constant(sys_2d):
    basis2d = find_modes_2d(sys_2d, 1.0)
    md = basis2d.modes[0]
    assert (md.m, md.n) == (0, 0)
    assert md.nu_b == 0.0 and md.nu_a == 0.0 and md.lambda_bar == 0.0
    assert md.amp_b == 1.0 and md.amp_a == 1.0


@given(n_eps=st.floats(min_value=0.0, max_value=30.0))
def test_mode_list_sorted_and_admissible(sys_2d, n_eps):
    basis2d = find_modes_2d(sys_2d, n_eps)
    lam = [md.lambda_bar for md in basis2d.modes]
    assert all(v <= n_eps * (1 + 1e-12) for v in lam)
    keys = [(md.lambda_bar, md.m, md.n) for md in basis2d.modes]
    assert keys == sorted(keys)
    for md in basis2d.modes:
        ka = sys_2d.mat_a.kappa * (md.nu_a**2 + md.mu**2)
        assert ka == pytest.approx(md.lambda_bar, rel=1e-9, abs=1e-12)


def test_phi_2d_interface_continuity_and_flux(sys_2d):
    basis2d = find_modes_2d(sys_2d, 60.0)
    y0 = 0.3
    for md in basis2d.modes:
        left = phi_2d(md, -1e-12, y0, sys_2d)
        right = phi_2d(md, 0.0, y0, sys_2d)
        assert left == pytest.approx(right, abs=1e-8 * max(1.0, abs(right)))
        flux_b = -sys_2d.mat_b.K * md.amp_b * md.nu_b * math.sin(md.nu_b * sys_2d.b)
        flux_a = sys_2d.mat_a.K * md.amp_a * md.nu_a * math.sin(md.nu_a * sys_2d.a)
        scale = max(1.0, abs(flux_b), abs(flux_a))
        assert abs(flux_b - flux_a) < 1e-8 * scale


def test_slice_grid_single_node_midpoints(sys_2d):
    g = uniform_grid(sys_2d, 1)
    assert g.nodes_b[0] == pytest.approx(-0.5)
    assert g.nodes_a[0] == pytest.approx(0.5)


def test_slice_round_trip(sys_2d):
    basis2d = find_modes_2d(sys_2d, 20.0)
    count = len(basis2d)
    assert count == 6
    rng = np.random.default_rng(31)
    c_b = rng.uniform(-1, 1, count)
    c_a = c_b.copy()
    grid = uniform_grid(sys_2d, count)
    y0 = 0.3
    final = synthesize_slice(basis2d, c_b, c_a, y0, sys_2d.tf, grid)
    rec_b, rec_a = recover_slice_coefficients(basis2d, final, y0)
    assert np.max(np.abs(rec_b - c_b)) < 1e-7
    assert np.max(np.abs(rec_a - c_a)) < 1e-7

    reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=20.0)
    recon = reconstruct_2d_slice(sys_2d, final, reg, y0, sys_2d.t0)
    want = synthesize_slice(basis2d, c_b, c_a, y0, sys_2d.t0, grid)
    assert np.max(np.abs(recon.values_b - want.values_b)) < 1e-6
    assert np.max(np.abs(recon.values_a - want.values_a)) < 1e-6


def test_slice_solve_rank_deficiency_raises(sys_2d):
    # 15 retained modes exhaust the per-layer collocation conditioning
    basis2d = find_modes_2d(sys_2d, 60.0)
    grid = uniform_grid(sys_2d, len(basis2d))
    field = SampledField(grid, np.zeros(len(basis2d)), np.zeros(len(basis2d)), sys_2d.tf)
    with pytest.raises(RankDeficientError):
        recover_slice_coefficients(basis2d, field, 0.3)


def test_reconstruct_slice_validations(sys_2d):
    grid = uniform_grid(sys_2d, 6)
    field = SampledField(grid, np.zeros(6), np.zeros(6), sys_2d.tf)
    reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=20.0)
    with pytest.raises(ValidationError):
        reconstruct_2d_slice(sys_2d, field, reg, -0.1, sys_2d.t0)
    with pytest.raises(ValidationError):
        reconstruct_2d_slice(sys_2d, field, reg, 1.1, sys_2d.t0)
    with pytest.raises(ValidationError):
        reconstruct_2d_slice(sys_2d, field, reg, 0.3, sys_2d.tf + 0.01)
    bad_grid = uniform_grid(sys_2d, 5)
    bad = SampledField(bad_grid, np.zeros(5), np.zeros(5), sys_2d.tf)
    with pytest.raises(ValidationError, match="needs exactly"):
        reconstruct_2d_slice(sys_2d, bad, reg, 0.3, sys_2d.t0)


def test_2d_routines_require_transverse_depth(sys_cm):
    with pytest.raises(ValidationError, match="transverse depth"):
        find_modes_2d(sys_cm, 1.0)


def _slice_matrix_loop(basis2d, nodes, slab, y0):
    """Column-by-column reference form of ``slice_matrix``."""
    s = basis2d.sys
    nodes = np.asarray(nodes, dtype=float)
    cols = []
    for md in basis2d.modes:
        if slab == "b":
            xpart = md.amp_b * np.cos(md.nu_b * (nodes + s.b))
        else:
            xpart = md.amp_a * np.cos(md.nu_a * (nodes - s.a))
        cols.append(xpart * y_mode(md.m, y0, s.c))
    return np.column_stack(cols)


@pytest.mark.parametrize("nodes", [1, 6, 1000, 11000])
@pytest.mark.parametrize("y0", [0.0, 0.3, 1.0])
def test_slice_matrix_matches_loop_form(sys_2d, nodes, y0):
    basis2d = find_modes_2d(sys_2d, 60.0)
    grid = uniform_grid(sys_2d, nodes)
    for slab, x in (("b", grid.nodes_b), ("a", grid.nodes_a)):
        got = slice_matrix(basis2d, x, slab, y0)
        assert got.shape == (nodes, len(basis2d))
        assert np.array_equal(got, _slice_matrix_loop(basis2d, x, slab, y0))


@pytest.mark.parametrize("y0", [0.0, 0.3, 1.0])
def test_reconstruct_slice_shares_matrices(sys_2d, y0, monkeypatch):
    import twoslab.bilayer2d

    reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=20.0)
    basis2d = find_modes_2d(sys_2d, reg.n_eps)
    count = len(basis2d)
    grid = uniform_grid(sys_2d, count)
    c = np.random.default_rng(5).uniform(-1, 1, count)
    final = synthesize_slice(basis2d, c, c, y0, sys_2d.tf, grid)
    t = 0.5 * (sys_2d.t0 + sys_2d.tf)
    r_b, r_a = recover_slice_coefficients(basis2d, final, y0)
    want = synthesize_slice(basis2d, r_b, r_a, y0, t, grid)

    calls = []
    real = twoslab.bilayer2d.slice_matrix
    monkeypatch.setattr(
        twoslab.bilayer2d, "slice_matrix", lambda *a: calls.append(a[2]) or real(*a)
    )
    got = reconstruct_2d_slice(sys_2d, final, reg, y0, t)
    assert sorted(calls) == ["a", "b"]
    assert np.array_equal(got.values_b, want.values_b)
    assert np.array_equal(got.values_a, want.values_a)


def _loop_find_modes_2d(sys, n_eps):
    """Per-m scan and bisection: the reference for find_modes_2d's batched bisection."""
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    modes = []
    m = 0
    while kb * (m * math.pi / sys.c) ** 2 <= n_eps:
        mu = m * math.pi / sys.c
        nu_hi = math.sqrt(max(0.0, n_eps / kb - mu**2))
        nu_lo = mu * math.sqrt(max(0.0, ka / kb - 1.0))
        roots = []
        if nu_hi >= nu_lo:
            roots = scan_roots(
                lambda v: eigen_f_2d(v, mu, sys), nu_lo, nu_hi, SCAN_STEP, REFINE_TOL
            )
        for n, nu_b in enumerate(roots):
            if m == 0 and n == 0:
                nu_b = 0.0
            nu_a = nu_a_of(nu_b, mu, sys)
            amp_b, amp_a, degen = _interface_amplitudes(sys, nu_b, nu_a)
            lam = kb * (nu_b**2 + mu**2)
            modes.append(Mode2D(m, n, mu, nu_b, nu_a, lam, amp_b, amp_a, degen))
        m += 1
    modes.sort(key=lambda md: (md.lambda_bar, md.m, md.n))
    return tuple(modes)


CU, MO, UNIT = Material(K=3.42, kappa=0.838), Material(K=1.05, kappa=0.339), Material(1.0, 1.0)
PLATES = {
    "cu_mo": SlabSystem(b=1.0, a=1.0, c=1.0, mat_b=CU, mat_a=MO),
    # slower-diffusing left layer: every m > 0 scans from nu_lo > 0
    "mo_cu": SlabSystem(b=1.0, a=1.0, c=1.0, mat_b=MO, mat_a=CU),
    "unit": SlabSystem(b=1.0, a=1.0, c=1.0, mat_b=UNIT, mat_a=UNIT),
    "rect": SlabSystem(b=0.7, a=1.3, c=2.5, mat_b=CU, mat_a=MO),
}


@pytest.mark.parametrize("n_eps", [0.0, 0.5, 1.38, 3.4, 27.6, 60.0, 1000.0])
@pytest.mark.parametrize("plate", sorted(PLATES))
def test_batched_bisection_gives_the_per_m_modes_bit_for_bit(plate, n_eps):
    sys = PLATES[plate]
    assert find_modes_2d(sys, n_eps).modes == _loop_find_modes_2d(sys, n_eps)


@pytest.mark.parametrize("n_eps", [0.0, 60.0, 1000.0])
def test_find_modes_2d_bisects_every_bracket_in_one_call(n_eps, monkeypatch):
    import twoslab.bilayer2d

    calls = []
    real = twoslab.bilayer2d._bisect_brackets
    monkeypatch.setattr(
        twoslab.bilayer2d, "_bisect_brackets", lambda *a: calls.append(len(a[1])) or real(*a)
    )
    basis2d = find_modes_2d(PLATES["cu_mo"], n_eps)
    assert len(calls) == 1
    # every mode but the grid hit at nu_b = 0 comes from a bracket
    assert calls[0] == max(len(basis2d) - 1, 0)


def test_find_modes_2d_keeps_only_the_brackets_of_each_scan():
    # holding every m's scan grid at once peaks above 4 MB at this size
    sys = PLATES["cu_mo"]
    find_modes_2d(sys, 1000.0)
    tracemalloc.start()
    try:
        find_modes_2d(sys, 1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_find_modes_2d_rejects_nan_threshold(sys_2d):
    with pytest.raises(ValidationError, match="non-negative"):
        find_modes_2d(sys_2d, float("nan"))
