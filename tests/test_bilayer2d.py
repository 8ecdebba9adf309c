import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twoslab.basis import BLOCKED_MIN_NODES, build_basis, slab_matrix
import twoslab.bilayer2d
import twoslab.eigensolver
from twoslab.bilayer2d import (
    EvanescentBranchError,
    find_modes_2d,
    nu_a_of,
    reconstruct_2d_slice,
    recover_slice_coefficients,
    slice_basis,
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
from twoslab.eigensolver import MAX_MODES, eigen_phase, find_eigenvalues
from twoslab.spectral import CoeffVector, synthesize

# enumeration thresholds with hand-checked mode inventories
PAIRS_SMALL = [(0, 0)]
PAIRS_TWO = [(0, 0), (0, 1)]
PAIRS_60 = [
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (0, 4), (1, 2),
    (0, 5), (2, 0), (1, 3), (2, 1), (0, 6), (1, 4), (2, 2),
]


def test_determinant_reduces_to_slab_problem_at_mu_zero(sys_2d):
    nu = np.linspace(0.05, 3.0, 57)
    got = oracles.dispersion_2d(nu, 0.0, sys_2d)
    want = nu * math.sqrt(sys_2d.mat_b.kappa) * oracles.dispersion(nu, sys_2d)
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
        left = float(oracles.phi_2d(md, -1e-12, y0, sys_2d))
        right = float(oracles.phi_2d(md, 0.0, y0, sys_2d))
        assert left == pytest.approx(right, abs=1e-8 * max(1.0, abs(right)))
        flux_b = -sys_2d.mat_b.K * md.amp_b * md.nu_b * math.sin(md.nu_b * sys_2d.b)
        flux_a = sys_2d.mat_a.K * md.amp_a * md.nu_a * math.sin(md.nu_a * sys_2d.a)
        scale = max(1.0, abs(flux_b), abs(flux_a))
        assert abs(flux_b - flux_a) < 1e-8 * scale


def test_slice_grid_single_node_midpoints(sys_2d):
    g = uniform_grid(sys_2d, 1)
    assert g.nodes_b[0] == pytest.approx(-0.5)
    assert g.nodes_a[0] == pytest.approx(0.5)


def _slice_series(basis2d, c_b, c_a, y0, t, grid):
    """The amplified slice series at time t on ``grid``, through the rod's synthesis."""
    on_slice = slice_basis(basis2d, y0)
    return synthesize(on_slice, CoeffVector(basis=on_slice, c_b=c_b, c_a=c_a), t, grid)


def test_slice_round_trip(sys_2d):
    basis2d = find_modes_2d(sys_2d, 20.0)
    count = len(basis2d)
    assert count == 6
    rng = np.random.default_rng(31)
    c_b = rng.uniform(-1, 1, count)
    c_a = c_b.copy()
    grid = uniform_grid(sys_2d, count)
    y0 = 0.3
    final = _slice_series(basis2d, c_b, c_a, y0, sys_2d.tf, grid)
    rec_b, rec_a = recover_slice_coefficients(basis2d, final, y0)
    assert np.max(np.abs(rec_b - c_b)) < 1e-7
    assert np.max(np.abs(rec_a - c_a)) < 1e-7

    reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=20.0)
    recon = reconstruct_2d_slice(sys_2d, final, reg, y0, sys_2d.t0)
    want = _slice_series(basis2d, c_b, c_a, y0, sys_2d.t0, grid)
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


def _slice_matrix_loop(basis2d, nodes, slab, y0, dtype=float):
    """Column-by-column reference form of the slice's mode matrix, from the plate's records.

    The amplitude amp Y_m(y0) is the double the slice carries; ``dtype``
    sets the precision of the cosines and the products.
    """
    s = basis2d.sys
    nodes = np.asarray(nodes, dtype=float).astype(dtype)
    cols = []
    for md in basis2d.modes:
        y = y_mode(md.m, y0, s.c)
        if slab == "b":
            cols.append(dtype(md.amp_b * y) * np.cos(dtype(md.nu_b) * (nodes + dtype(s.b))))
        else:
            cols.append(dtype(md.amp_a * y) * np.cos(dtype(md.nu_a) * (nodes - dtype(s.a))))
    return np.column_stack(cols)


@pytest.mark.parametrize("nodes", [1, 6, 1000, 11000])
@pytest.mark.parametrize("y0", [0.0, 0.3, 1.0])
def test_slice_matrix_matches_loop_form(sys_2d, nodes, y0):
    # the rod's mode matrices of the slice basis are X_mn(x) Y_m(y0), column
    # for column: bit for bit below the blocked evaluation's crossover, and
    # within its round-off bound of the long-double loop form above it
    basis2d = find_modes_2d(sys_2d, 60.0)
    on_slice = slice_basis(basis2d, y0)
    grid = uniform_grid(sys_2d, nodes)
    for slab, x in (("b", grid.nodes_b), ("a", grid.nodes_a)):
        P = slab_matrix(on_slice, x, slab, len(basis2d))
        assert P.shape == (nodes, len(basis2d))
        if nodes < BLOCKED_MIN_NODES:
            assert np.array_equal(P, _slice_matrix_loop(basis2d, x, slab, y0))
            continue
        shift = sys_2d.b if slab == "b" else -sys_2d.a
        lam, amp = getattr(on_slice, f"lambda_{slab}"), getattr(on_slice, f"amp_{slab}")
        err = np.abs(P - _slice_matrix_loop(basis2d, x, slab, y0, np.longdouble))
        assert np.all(err <= oracles.cos_matrix_bound(x, shift, lam, amp)), float(err.max())


@pytest.mark.parametrize("y0", [0.0, 0.3, 1.0])
def test_slice_basis_records_match_its_arrays(sys_2d, y0):
    # 15 modes, m = 0, 1 and 2 among them
    basis2d = find_modes_2d(sys_2d, 60.0)
    on_slice = slice_basis(basis2d, y0)
    assert len(on_slice) == len(basis2d) == 15
    assert on_slice.sys is basis2d.sys
    for name in ("lambda_b", "lambda_a", "lambda_bar"):
        assert np.array_equal(getattr(on_slice, name), getattr(basis2d, name))
    y = np.array([y_mode(md.m, y0, sys_2d.c) for md in basis2d.modes])
    assert np.array_equal(on_slice.amp_b, basis2d.amp_b * y)
    assert np.array_equal(on_slice.amp_a, basis2d.amp_a * y)
    assert np.array_equal([md.amp_b for md in on_slice.modes], on_slice.amp_b)
    assert np.array_equal([md.amp_a for md in on_slice.modes], on_slice.amp_a)
    # every other field of the slice's rows is the plate's
    for name in on_slice.modes.dtype.names:
        if name not in ("amp_b", "amp_a"):
            assert on_slice.modes[name].tobytes() == basis2d.modes[name].tobytes(), name


@pytest.mark.parametrize("y0", [0.0, 0.3, 1.0])
def test_reconstruct_slice_shares_matrices(sys_2d, y0, monkeypatch):
    import twoslab.spectral

    reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=20.0)
    basis2d = find_modes_2d(sys_2d, reg.n_eps)
    count = len(basis2d)
    grid = uniform_grid(sys_2d, count)
    c = np.random.default_rng(5).uniform(-1, 1, count)
    final = _slice_series(basis2d, c, c, y0, sys_2d.tf, grid)
    t = 0.5 * (sys_2d.t0 + sys_2d.tf)
    r_b, r_a = recover_slice_coefficients(basis2d, final, y0)
    want = _slice_series(basis2d, r_b, r_a, y0, t, grid)

    calls = []
    real = twoslab.spectral.mode_operator
    monkeypatch.setattr(
        twoslab.spectral, "mode_operator", lambda *a: calls.append(a[2]) or real(*a)
    )
    got = reconstruct_2d_slice(sys_2d, final, reg, y0, t)
    assert sorted(calls) == ["a", "b"]
    assert np.array_equal(got.values_b, want.values_b)
    assert np.array_equal(got.values_a, want.values_a)


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
def test_batched_bisection_gives_the_per_m_modes_bit_for_bit(plate, n_eps, monkeypatch):
    # the targets of every m share one bisection; bisecting each m on its own
    # (where m = 0 takes the unshifted slab phase) must give the same roots
    real = twoslab.bilayer2d._phase_roots
    seen = []

    def spy(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(twoslab.bilayer2d, "_phase_roots", spy)
    find_modes_2d(PLATES[plate], n_eps)
    [((sys, lo, hi, target, mu), batched)] = seen
    per_m = [np.empty(0)] + [
        real(sys, lo[mu == v], hi[mu == v], target[mu == v], mu[mu == v]) for v in np.unique(mu)
    ]
    assert np.array_equal(np.concatenate(per_m), batched)


@pytest.mark.parametrize("plate", sorted(PLATES))
def test_modes_match_the_brute_force_oracle(plate):
    sys = PLATES[plate]
    for n_eps in (0.5, 1.38, 3.4, 27.6, 60.0):
        _assert_brute_force_modes(sys, n_eps)


def _assert_brute_force_modes(sys, n_eps):
    got = {(md.m, md.n): md.nu_b for md in find_modes_2d(sys, n_eps).modes}
    want = {(m, n): nu_b for m, n, _, nu_b, _ in oracles.brute_modes_2d(sys, n_eps)}
    assert sorted(got) == sorted(want)
    assert max(abs(got[key] - want[key]) for key in got) < 1e-10


@st.composite
def _plates(draw):
    length = st.floats(0.3, 2.0)
    material = st.builds(Material, K=st.floats(0.2, 5.0), kappa=st.floats(0.3, 3.0))
    return SlabSystem(
        b=draw(length), a=draw(length), c=draw(length), mat_b=draw(material), mat_a=draw(material)
    )


# derandomized: the oracle's grid step (2e-4) cannot resolve a root that close
# to the evanescent threshold, so a fixed set of plates keeps the check exact
@settings(max_examples=25, derandomize=True)
@given(sys=_plates(), n_eps=st.floats(0.0, 20.0))
def test_modes_match_the_brute_force_oracle_on_admissible_plates(sys, n_eps):
    _assert_brute_force_modes(sys, n_eps)


@pytest.mark.parametrize("plate", sorted(PLATES))
def test_m_zero_plate_roots_are_the_slab_roots(plate):
    # both bisect the same phase to adjacent doubles, from different brackets
    sys = PLATES[plate]
    m0 = sorted((md.n, md.nu_b) for md in find_modes_2d(sys, 1000.0).modes if md.m == 0)
    slab = [p.lambda_b for p in find_eigenvalues(sys, len(m0) - 1)]
    assert [n for n, _ in m0] == list(range(len(slab)))
    assert np.allclose([nu for _, nu in m0], slab, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("plate", sorted(PLATES))
def test_transverse_modes_raise_no_runtime_warning(plate):
    sys = PLATES[plate]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        basis2d = find_modes_2d(sys, 1000.0)
        mu = np.array([1.0, 2.0, 5.0]) * math.pi / sys.c
        at_zero = eigen_phase(np.zeros(3), sys, mu)
        near_zero = eigen_phase(np.full(3, 1e-9), sys, mu)
    assert any(md.m > 0 for md in basis2d.modes)
    # the nu_b = 0 end takes the phase's limit
    assert np.allclose(at_zero, near_zero, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("plate", sorted(PLATES))
def test_zero_threshold_keeps_the_constant_mode(plate):
    # lambda_bar <= n_eps is inclusive, as admissible_set is in 1D
    modes = find_modes_2d(PLATES[plate], 0.0).modes
    assert [(md.m, md.n, md.nu_b) for md in modes] == [(0, 0, 0.0)]


@pytest.mark.parametrize("n_eps", [0.0, 60.0, 1000.0])
def test_find_modes_2d_bisects_every_bracket_in_one_call(n_eps, monkeypatch):
    calls = []
    real = twoslab.eigensolver._bisect_brackets
    monkeypatch.setattr(
        twoslab.eigensolver, "_bisect_brackets", lambda *a: calls.append(len(a[1])) or real(*a)
    )
    basis2d = find_modes_2d(PLATES["cu_mo"], n_eps)
    assert len(calls) == 1
    # every mode but the constant one at nu_b = 0 comes from a bracket
    assert calls[0] == len(basis2d) - 1


def test_find_modes_2d_keeps_only_the_brackets_of_each_scan():
    # no grid: only one bracket per mode is held, well below 0.5 MB at this size
    sys = PLATES["cu_mo"]
    find_modes_2d(sys, 1000.0)
    tracemalloc.start()
    try:
        find_modes_2d(sys, 1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_find_modes_2d_rejects_nan_threshold(sys_2d):
    with pytest.raises(ValidationError, match="non-negative"):
        find_modes_2d(sys_2d, float("nan"))


@pytest.mark.parametrize("n_eps", [1e6, 1e308, math.inf])
def test_find_modes_2d_refuses_oversized_spectra_before_allocating(sys_2d, n_eps):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"at most {MAX_MODES}"):
            find_modes_2d(sys_2d, n_eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
