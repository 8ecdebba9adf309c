import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from twoslab.basis import build_basis, slab_grams, slab_matrix


def test_reference_norms_closed_form(basis_cm):
    # N_1..N_3 and M_1 evaluated at 40-digit mpmath roots of the dispersion relation
    ns = [m.norm_N for m in basis_cm.modes[:4]]
    assert ns[0] == pytest.approx(29.697763321857778, rel=1e-12)
    assert ns[1] == pytest.approx(7741.555194439178, rel=1e-12)
    assert ns[2] == pytest.approx(14.954703983237408, rel=1e-12)
    assert ns[3] == pytest.approx(860.2400198878479, rel=1e-12)
    assert basis_cm.modes[0].norm_M == 0.0
    assert basis_cm.modes[1].norm_M == pytest.approx(692.1447368410521, rel=1e-12)


def test_zero_mode_norm_is_weighted_length(sys_cm, basis_cm):
    want = (sys_cm.b * sys_cm.mat_b.K / sys_cm.mat_b.kappa
            + sys_cm.a * sys_cm.mat_a.K / sys_cm.mat_a.kappa)
    assert basis_cm.modes[0].norm_N == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("fixture", ["basis_cm_20", "basis_explicit"])
def test_closed_norms_match_quadrature(fixture, request):
    basis = request.getfixturevalue(fixture)
    for n in range(len(basis)):
        qn, qm = oracles.norms_quadrature(basis, n)
        assert qn == pytest.approx(basis.modes[n].norm_N, rel=1e-10)
        assert qm == pytest.approx(basis.modes[n].norm_M, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("fixture", ["basis_cm_20", "basis_explicit"])
def test_derivative_norm_is_rate_times_norm(fixture, request):
    basis = request.getfixturevalue(fixture)
    for md in basis.modes:
        assert md.norm_M == pytest.approx(md.pair.lambda_bar * md.norm_N,
                                          rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("fixture", ["basis_cm_20", "basis_explicit"])
def test_weighted_orthogonality(fixture, request):
    basis = request.getfixturevalue(fixture)
    G = oracles.weighted_gram(basis)
    N = np.array([m.norm_N for m in basis.modes])
    scale = np.sqrt(np.outer(N, N))
    off = np.abs(G - np.diag(np.diag(G))) / scale
    assert np.max(off) < 1e-8
    assert np.allclose(np.diag(G), N, rtol=1e-8)


def test_derivative_gram_diagonalizes(basis_cm_20):
    D = oracles.derivative_gram(basis_cm_20)
    M = np.array([m.norm_M for m in basis_cm_20.modes])
    assert np.allclose(np.diag(D), M, rtol=1e-8, atol=1e-10)
    scale = np.sqrt(np.outer(np.maximum(M, 1.0), np.maximum(M, 1.0)))
    off = np.abs(D - np.diag(np.diag(D))) / scale
    assert np.max(off) < 1e-8


def test_cross_slab_gram_ratio(basis_cm):
    # Green's identity: the two restricted inner products of distinct
    # modes differ by the fixed factor -(kappa_a K_b)/(kappa_b K_a)
    s = basis_cm.sys
    Gb, Ga = slab_grams(basis_cm)
    r = (s.mat_a.kappa * s.mat_b.K) / (s.mat_b.kappa * s.mat_a.K)
    off = ~np.eye(len(basis_cm), dtype=bool)
    assert np.max(np.abs(Ga[off] + r * Gb[off])) < 1e-8 * np.max(np.abs(Gb[off]))


def test_interface_continuity_and_flux(basis_cm_20):
    s = basis_cm_20.sys
    for n, md in enumerate(basis_cm_20.modes):
        left_val = md.amp_b * math.cos(md.pair.lambda_b * s.b)
        right_val = basis_cm_20.phi(n, 0.0)
        assert left_val == pytest.approx(right_val, rel=1e-9, abs=1e-9)
        flux_left = -s.mat_b.K * md.amp_b * md.pair.lambda_b * math.sin(md.pair.lambda_b * s.b)
        flux_right = s.mat_a.K * oracles.phi_prime(basis_cm_20, n, 0.0)
        scale = max(abs(flux_left), abs(flux_right), 1.0)
        assert abs(flux_left - flux_right) < 1e-8 * scale


def test_outer_faces_are_insulated(basis_cm, sys_cm):
    for n in range(len(basis_cm)):
        assert oracles.phi_prime(basis_cm, n, -sys_cm.b) == pytest.approx(0.0, abs=1e-12)
        assert oracles.phi_prime(basis_cm, n, sys_cm.a) == pytest.approx(0.0, abs=1e-10)


def test_phi_branches(basis_cm, sys_cm):
    md = basis_cm.modes[2]
    x_left, x_right = -1.3, 0.7
    assert basis_cm.phi(2, x_left) == pytest.approx(
        md.amp_b * math.cos(md.pair.lambda_b * (x_left + sys_cm.b)), rel=1e-14)
    assert basis_cm.phi(2, x_right) == pytest.approx(
        md.amp_a * math.cos(md.pair.lambda_a * (x_right - sys_cm.a)), rel=1e-14)


@given(x=st.floats(min_value=-4.9, max_value=2.9), n=st.integers(min_value=0, max_value=7))
def test_phi_prime_matches_finite_difference(basis_cm, x, n):
    if abs(x) < 1e-3:
        return  # the derivative jumps at the interface
    h = 1e-6
    fd = (basis_cm.phi(n, x + h) - basis_cm.phi(n, x - h)) / (2 * h)
    assert oracles.phi_prime(basis_cm, n, x) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_slab_matrix_columns_are_modes(basis_cm):
    nodes = np.linspace(-4.0, 0.0, 6)
    P = slab_matrix(basis_cm, nodes, "b", 5)
    assert P.shape == (6, 5)
    for j in range(5):
        assert np.allclose(P[:, j], basis_cm.phi(j, nodes), rtol=1e-14)


def test_degenerate_interface_modes_explicit(sys_explicit):
    # lambda_b = k*pi/8 makes cos(5k*pi/8) vanish for k = 4, 12, 20, ...
    basis = build_basis(sys_explicit, 21)
    flagged = [n for n, md in enumerate(basis.modes) if md.degenerate_interface]
    assert flagged == [4, 12, 20]


def test_degenerate_modes_still_orthogonal(sys_explicit):
    basis = build_basis(sys_explicit, 13)
    G = oracles.weighted_gram(basis)
    N = np.diag(G)
    off = np.abs(G - np.diag(N)) / np.sqrt(np.outer(N, N))
    assert np.max(off) < 1e-8
    # degenerate entries still satisfy the rate relation through quadrature
    for n in (4, 12):
        qn, qm = oracles.norms_quadrature(basis, n)
        assert qm == pytest.approx(basis.modes[n].pair.lambda_bar * qn, rel=1e-8)


def test_norms_against_independent_quadrature(basis_cm, sys_cm):
    # modest-order Gauss rule written out longhand, per slab
    md = basis_cm.modes[2]
    w_b = sys_cm.mat_b.K / sys_cm.mat_b.kappa
    w_a = sys_cm.mat_a.K / sys_cm.mat_a.kappa
    left = oracles.gauss_norm_sq(lambda x: basis_cm.phi(2, x), -sys_cm.b, 0.0)
    right = oracles.gauss_norm_sq(lambda x: basis_cm.phi(2, x), 1e-12, sys_cm.a)
    assert w_b * left + w_a * right == pytest.approx(md.norm_N, rel=1e-10)


def _with_random_amplitudes(basis, seed=0):
    """The basis' frequencies with random slab amplitudes.

    Eigenmodes satisfy the interface conditions, which cancel the
    sin((l_m + l_n) L) terms between the slabs of the weighted
    derivative Gram; arbitrary amplitudes keep every term visible.
    """
    rng = np.random.default_rng(seed)
    amp_b = rng.uniform(0.5, 2.0, len(basis))
    amp_a = rng.uniform(0.5, 2.0, len(basis))
    modes = tuple(
        dataclasses.replace(md, amp_b=float(ab), amp_a=float(aa))
        for md, ab, aa in zip(basis.modes, amp_b, amp_a)
    )
    return dataclasses.replace(basis, modes=modes, amp_b=amp_b, amp_a=amp_a)


@pytest.mark.parametrize("random_amplitudes", [False, True])
@pytest.mark.parametrize("system", ["sys_cm", "sys_stiff"])
def test_closed_grams_match_quadrature_oracle(system, random_amplitudes, request):
    basis = build_basis(request.getfixturevalue(system), 51)
    if random_amplitudes:
        basis = _with_random_amplitudes(basis)
    Gb_q, Ga_q, Db_q, Da_q = oracles.quadrature_grams(basis)
    s = basis.sys
    D_q = s.mat_b.K * Db_q + s.mat_a.K * Da_q

    def scaled_gap(got, want):
        d = np.where(np.diag(want) > 0, np.diag(want), 1.0)
        return float(np.max(np.abs(got - want) / np.sqrt(np.outer(d, d))))

    Gb, Ga = slab_grams(basis)
    assert scaled_gap(Gb, Gb_q) < 1e-12
    assert scaled_gap(Ga, Ga_q) < 1e-12
    assert scaled_gap(oracles.derivative_gram(basis), D_q) < 1e-12
    assert scaled_gap(slab_grams(basis, 7)[0], Gb_q[:7, :7]) < 1e-12
