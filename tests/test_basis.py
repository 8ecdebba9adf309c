import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from twoslab.basis import (
    BLOCKED_MIN_NODES,
    BlockedModes,
    build_basis,
    mode_operator,
    slab_grams,
    slab_matrix,
)
from twoslab.core import uniform_grid
from twoslab.spectral import COMPRESSED_MIN_NODES, CONDITION_LIMIT, RECOVERY_POLICIES


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


@pytest.fixture(scope="module")
def rods_2000(sys_cm, sys_stiff, sys_explicit):
    return {
        "cu_mo": build_basis(sys_cm, 2000),
        "stiff": build_basis(sys_stiff, 2000),
        "unit": build_basis(sys_explicit, 2000),  # degenerate interface at n = 4, 12, 20, ...
    }


def _slab_arrays(basis, slab, count):
    """(shift, lambda, amp) of one slab's first count modes: phi = amp cos(lambda (x + shift))."""
    shift = basis.sys.b if slab == "b" else -basis.sys.a
    return shift, getattr(basis, f"lambda_{slab}")[:count], getattr(basis, f"amp_{slab}")[:count]


@pytest.mark.parametrize("nodes", [BLOCKED_MIN_NODES, BLOCKED_MIN_NODES + 1, 1000, 11000])
@pytest.mark.parametrize("count", [51, 403, 2000])
@pytest.mark.parametrize("rod", ["cu_mo", "stiff", "unit"])
def test_blocked_mode_matrix_is_within_roundoff_of_long_double(rods_2000, rod, count, nodes):
    # equispaced grids from the crossover up; 257 is prime, and 257, 1000 and
    # 11000 end in a partial block.  From 1000 nodes every 11th row and the last
    # are checked: 11 is prime to their block lengths 32 and 105, so every
    # block start and every in-block offset is among them.
    basis = rods_2000[rod]
    if rod == "unit":
        assert any(md.degenerate_interface for md in basis.modes[:count])
    grid = uniform_grid(basis.sys, nodes)
    rows = np.r_[0:nodes:11, nodes - 1] if nodes >= 1000 else np.arange(nodes)
    for slab, x in (("b", grid.nodes_b), ("a", grid.nodes_a)):
        shift, lam, amp = _slab_arrays(basis, slab, count)
        P = slab_matrix(basis, x, slab, count)
        assert P.shape == (nodes, count)
        err = np.abs(P[rows] - oracles.cos_matrix_longdouble(x[rows], shift, lam, amp))
        assert np.all(err <= oracles.cos_matrix_bound(x, shift, lam, amp)), (slab, float(err.max()))


def _direct_form(basis, nodes, slab, count):
    shift, lam, amp = _slab_arrays(basis, slab, count)
    return amp * np.cos(np.outer(nodes + shift, lam))


def _off_linspace(nodes):
    assert not np.array_equal(nodes, np.linspace(nodes[0], nodes[-1], nodes.size))
    return nodes


@pytest.mark.parametrize("slab", ["b", "a"])
def test_other_nodes_take_the_direct_form_bit_for_bit(rods_2000, slab):
    # equispaced grids below the crossover, and node sets of any size that are
    # not exactly np.linspace: the Gauss rule, a linspace with one node an ulp
    # off, and a linspace as a field CSV stores it (11 significant digits)
    basis = rods_2000["cu_mo"]

    def nodes_of(n):
        return getattr(uniform_grid(basis.sys, n), f"nodes_{slab}")

    even = nodes_of(11000)
    nudged = even[:1000].copy()
    nudged[500] = np.nextafter(nudged[500], np.inf)
    node_sets = [nodes_of(n) for n in (1, 2, 20, 51, BLOCKED_MIN_NODES - 1)] + [
        _off_linspace(getattr(basis, f"quad_x_{slab}")),
        _off_linspace(nudged),
        _off_linspace(np.array([float(f"{v:.10e}") for v in even])),
    ]
    for nodes in node_sets:
        for count in (12, 403):
            got = slab_matrix(basis, nodes, slab, count)
            assert np.array_equal(got, _direct_form(basis, nodes, slab, count)), nodes.size


def test_equispaced_grid_takes_no_cosine_per_entry(sys_cm, monkeypatch):
    # the blocked form's tables: at most ceil(sqrt(n)) rows of cosines per table, two tables a slab
    basis = build_basis(sys_cm, 40)
    grid = uniform_grid(sys_cm, 11000)
    real = np.cos
    sizes = []
    monkeypatch.setattr(np, "cos", lambda x, *a, **kw: sizes.append(np.size(x)) or real(x, *a, **kw))
    for slab, x in (("b", grid.nodes_b), ("a", grid.nodes_a)):
        assert slab_matrix(basis, x, slab, 40).shape == (11000, 40)
    block = math.isqrt(11000 - 1) + 1
    assert len(sizes) == 4
    assert max(sizes) <= block * 40
    assert sum(sizes) <= 4 * block * 40


@pytest.mark.parametrize("nodes", [BLOCKED_MIN_NODES, BLOCKED_MIN_NODES + 1, 1000, 11000])
@pytest.mark.parametrize("count", [51, 403])
@pytest.mark.parametrize("rod", ["cu_mo", "stiff", "unit"])
def test_blocked_operator_products_are_within_roundoff_of_long_double(rods_2000, rod, count, nodes):
    # the trapezoid Gram, P^T y and P g from the tables against the long-double
    # matrix, with bounds fixed from the double evaluation: each entry of P errs
    # by at most b_n = cos_matrix_bound, and the table sums by a few (N/B + B + k)
    # eps of their terms.  The Gram and P^T y are checked on every 20th column and
    # the last (the unit rod's degenerate columns 20, 100, ... among them), P g on
    # every 13th row and the last: 13 is prime to the block lengths 16, 17, 32
    # and 105, so every in-block offset is among them.
    basis = rods_2000[rod]
    eps = np.finfo(float).eps
    rng = np.random.default_rng(nodes + count)
    grid = uniform_grid(basis.sys, nodes)
    cols = np.r_[0:count:20, count - 1]
    rows = np.r_[0:nodes:13, nodes - 1]
    for slab, x in (("b", grid.nodes_b), ("a", grid.nodes_a)):
        shift, lam, amp = _slab_arrays(basis, slab, count)
        P = mode_operator(basis, x, slab, count)
        assert isinstance(P, BlockedModes) and P.shape == (nodes, count)
        terms = P.starts.shape[1] + P.offsets.shape[1] + 2
        bound = oracles.cos_matrix_bound(x, shift, lam, amp)
        mag = np.abs(amp)
        w = P.trapezoid_weights()
        assert w[0] == w[-1] == 0.5 * P.h and np.all(w[1:-1] == P.h)
        length = float(np.sum(w))

        L = oracles.cos_matrix_longdouble(x, shift, lam[cols], amp[cols])
        want = L.T @ (w.astype(np.longdouble)[:, None] * L)
        tol = length * (
            np.outer(bound[cols], mag[cols]) + np.outer(mag[cols], bound[cols])
            + 8 * terms * eps * np.outer(mag[cols], mag[cols])
        )
        got = P.trapezoid_gram()
        assert np.array_equal(got, got.T)
        assert np.all(np.abs(got[np.ix_(cols, cols)] - want) <= tol), slab

        y = rng.standard_normal(nodes)
        want = L.T @ y.astype(np.longdouble)
        tol = np.sum(np.abs(y)) * (bound[cols] + 2 * terms * eps * mag[cols])
        assert np.all(np.abs(P.rmatvec(y)[cols] - want) <= tol), slab

        g = rng.standard_normal(count)
        want = oracles.cos_matrix_longdouble(x[rows], shift, lam, amp) @ g.astype(np.longdouble)
        tol = bound @ np.abs(g) + 2 * (count + 2) * eps * (mag @ np.abs(g))
        assert np.all(np.abs((P @ g)[rows] - want) <= tol), slab


@pytest.mark.parametrize("policy", RECOVERY_POLICIES)
def test_blocked_recovery_forms_no_mode_matrix(sys_cm, policy, monkeypatch):
    # every policy reads the tables only, least squares through compress():
    # no dense(), and the traced peak stays below the bytes of one 11000 x count matrix
    import tracemalloc

    from twoslab.core import SampledField
    from twoslab.evolve import forward_solve

    basis = build_basis(sys_cm, 40)
    grid = uniform_grid(sys_cm, 11000)
    field = SampledField(grid, np.cos(0.3 * grid.nodes_b), np.cos(0.3 * grid.nodes_a), sys_cm.t0)
    count = {"projection": 40, "least-squares": 12, "strict-paper": 7}[policy]

    def refuse(self):
        raise AssertionError("the N x k matrix was formed")

    monkeypatch.setattr(BlockedModes, "dense", refuse)
    forward_solve(basis, field, grid, count, policy)
    tracemalloc.start()
    try:
        forward_solve(basis, field, grid, count, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11000 * count * 8, peak


@functools.lru_cache(maxsize=None)
def _basis_20(sys):
    return build_basis(sys, 20)


# N = B^2 + 1 puts one row in the last block; a perfect square fills it
_COMPRESSED_NODES = st.one_of(
    st.integers(COMPRESSED_MIN_NODES, 11000),
    st.integers(46, 104).map(lambda b: b * b),
    st.integers(46, 104).map(lambda b: b * b + 1),
)


@settings(max_examples=60, derandomize=True)
@given(
    rod=st.sampled_from(["cu_mo", "stiff", "unit"]),
    slab=st.sampled_from("ba"),
    nodes=_COMPRESSED_NODES,
    count=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@example(rod="cu_mo", slab="b", nodes=COMPRESSED_MIN_NODES, count=1, seed=0)
@example(rod="cu_mo", slab="a", nodes=11000, count=20, seed=0)
@example(rod="unit", slab="b", nodes=104 * 104 + 1, count=12, seed=1)
@example(rod="stiff", slab="a", nodes=46 * 46, count=7, seed=2)
def test_compressed_least_squares_matches_dense(sys_cm, sys_stiff, sys_explicit, rod, slab, nodes,
                                                count, seed):
    """compress() + lstsq against lstsq on the dense form.

    Weyl's inequality bounds the gap between the two spectra by the
    distance of the two matrices plus each SVD's backward error: the
    rounding of the table products, of the two QRs and of each SVD.  The
    tolerance delta = 4 (k + 1) eps, relative to sigma_max, is not derived
    from those terms but set from their measured worst case: in 1500
    random cases of this strategy the gap reached 2.9 k eps sigma_max at
    k <= 5, and 2.0 eps sigma_max at k = 1, where either route alone
    misses the constant mode's closed-form sigma = |amp| sqrt(N) by up to
    2 eps sigma.  With that relative backward error in A and y, each
    route's coefficients lie within kappa delta/(1 - kappa delta) (2 ||c|| + (kappa + 1) ||r||/sigma_max)
    of the exact minimiser (Higham, Accuracy and Stability, Thm 20.1), so the
    two lie within twice that of each other.  Coefficients are compared
    where the guard returns them, kappa <= CONDITION_LIMIT.
    """
    eps = np.finfo(float).eps
    basis = _basis_20({"cu_mo": sys_cm, "stiff": sys_stiff, "unit": sys_explicit}[rod])
    grid = uniform_grid(basis.sys, nodes)
    P = mode_operator(basis, getattr(grid, f"nodes_{slab}"), slab, count)
    assert isinstance(P, BlockedModes)
    rng = np.random.default_rng(seed)
    A = P.dense()
    y = A @ rng.uniform(-1.0, 1.0, count) + 1e-3 * rng.standard_normal(nodes)
    want, _, _, sv = np.linalg.lstsq(A, y, rcond=None)
    C, z = P.compress(y)
    assert C.shape[0] <= 4 * count**2 + P.offsets.shape[1] and z.shape == C.shape[:1]
    got, _, _, sv_got = np.linalg.lstsq(C, z, rcond=None)
    delta = 4 * (count + 1) * eps
    assert np.all(np.abs(sv_got - sv) <= delta * sv[0])
    cond = sv[0] / sv[-1]
    if cond <= CONDITION_LIMIT:
        kd = cond * delta
        r = np.linalg.norm(A @ want - y)
        bound = 2 * kd / (1 - kd) * (2 * np.linalg.norm(want) + (cond + 1) * r / sv[0])
        assert np.linalg.norm(got - want) <= bound


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
    return dataclasses.replace(basis, amp_b=amp_b, amp_a=amp_a)


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
