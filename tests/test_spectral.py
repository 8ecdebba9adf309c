import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from twoslab.basis import BLOCKED_MIN_NODES, BlockedModes, build_basis, slab_matrix
from twoslab.core import (
    AmplificationOverflowError,
    Grid,
    NumericalError,
    RankDeficientError,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    uniform_grid,
)
from twoslab.evolve import cutoff_reconstruct, forward_solve
from twoslab.spectral import (
    COMPRESSED_MIN_NODES,
    CONDITION_LIMIT,
    RECOVERY_POLICIES,
    CoeffVector,
    _strict_subsample,
    amplification_factors,
    project_coefficients,
    recover_coefficients,
    synthesize,
)


def _in_span_field(basis, coeffs, grid, time):
    cv = CoeffVector(basis=basis, c_b=coeffs, c_a=coeffs.copy())
    out = synthesize(basis, cv, basis.sys.tf, grid)  # unit amplification
    return SampledField(grid, out.values_b, out.values_a, time)


@pytest.fixture(scope="module")
def span_data(basis_cm, sys_cm):
    grid = uniform_grid(sys_cm, 20)
    c = np.random.default_rng(11).uniform(-1, 1, 8)
    return grid, c, _in_span_field(basis_cm, c, grid, sys_cm.tf)


def test_design_matrix_shape_and_condition(basis_cm):
    nodes = np.linspace(-5.0, 0.0, 9)
    A = slab_matrix(basis_cm, nodes, "b", 6)
    assert A.shape == (9, 6)
    assert np.linalg.cond(A) >= 1.0


def test_design_matrix_rejects_bad_mode_count(basis_cm, sys_cm):
    # every policy takes modes 1..len(basis) only
    grid = uniform_grid(sys_cm, 10)
    field = SampledField(grid, np.zeros(10), np.zeros(10), sys_cm.tf)
    for policy in RECOVERY_POLICIES:
        for count in (0, len(basis_cm) + 1):
            with pytest.raises(ValidationError, match="mode_count must be in"):
                recover_coefficients(basis_cm, field, count, policy)


def test_strict_subsample_spreads_with_endpoints():
    assert _strict_subsample(20, 7).tolist() == [0, 3, 6, 10, 13, 16, 19]
    assert _strict_subsample(10, 10).tolist() == list(range(10))


def test_coeff_vector_validations(basis_cm):
    with pytest.raises(ValidationError):
        CoeffVector(basis=basis_cm, c_b=np.zeros(3), c_a=np.zeros(4))
    with pytest.raises(ValidationError):
        CoeffVector(basis=basis_cm, c_b=np.zeros(9), c_a=np.zeros(9))
    cv = CoeffVector(basis=basis_cm, c_b=np.array([1.0, 2.0]), c_a=np.array([1.0, 2.5]))
    assert oracles.consistency_gap(cv) == pytest.approx(0.5)


@pytest.mark.parametrize("policy,tol", [
    ("projection", 1e-12),
    ("least-squares", 1e-9),
    ("strict-paper", 1e-9),
])
def test_recovery_exact_on_spanned_data(basis_cm, span_data, policy, tol):
    grid, c, field = span_data
    got = recover_coefficients(basis_cm, field, 8, policy=policy)
    assert np.max(np.abs(got.c_b - c)) < tol
    assert np.max(np.abs(got.c_a - c)) < tol


def test_projection_is_consistent_but_per_slab_swings(basis_cm, sys_cm):
    # tiny out-of-span perturbations move the joint projection a little
    # and the independent per-slab fits a lot (near-dependent columns)
    grid = uniform_grid(sys_cm, 20)
    c = np.pad(np.random.default_rng(11).uniform(-1, 1, 7), (0, 1))
    field = _in_span_field(basis_cm, c, grid, sys_cm.tf)
    rng = np.random.default_rng(5)
    noisy = SampledField(grid,
                         field.values_b + 1e-6 * rng.standard_normal(20),
                         field.values_a + 1e-6 * rng.standard_normal(20),
                         sys_cm.tf)
    proj = recover_coefficients(basis_cm, noisy, 7, policy="projection")
    lsq = recover_coefficients(basis_cm, noisy, 7, policy="least-squares")
    move_proj = np.max(np.abs(proj.c_b - c[:7]))
    move_lsq = max(np.max(np.abs(lsq.c_b - c[:7])), np.max(np.abs(lsq.c_a - c[:7])))
    assert oracles.consistency_gap(proj) == 0.0
    assert move_proj < 1e-5
    assert oracles.consistency_gap(lsq) > 1e-5
    assert move_lsq > 10 * move_proj


def test_unknown_policy_rejected(basis_cm, span_data):
    _, _, field = span_data
    with pytest.raises(ValidationError):
        recover_coefficients(basis_cm, field, 4, policy="ridge")


def test_per_slab_needs_enough_nodes(basis_cm, sys_cm):
    grid = uniform_grid(sys_cm, 5)
    field = SampledField(grid, np.zeros(5), np.zeros(5), sys_cm.tf)
    with pytest.raises(ValidationError):
        recover_coefficients(basis_cm, field, 7, policy="least-squares")


def test_projection_needs_enough_total_nodes(basis_cm, sys_cm):
    grid = uniform_grid(sys_cm, 3)
    field = SampledField(grid, np.zeros(3), np.zeros(3), sys_cm.tf)
    with pytest.raises(ValidationError):
        recover_coefficients(basis_cm, field, 7, policy="projection")


def test_per_slab_rank_deficiency_guard(basis_cm_20, sys_cm):
    grid = uniform_grid(sys_cm, 20)
    field = SampledField(grid, np.zeros(20), np.zeros(20), sys_cm.tf)
    with pytest.raises(RankDeficientError) as exc:
        recover_coefficients(basis_cm_20, field, 20, policy="least-squares")
    assert exc.value.condition > 1e12


def test_projection_rank_deficiency_guard(sys_cm):
    basis = build_basis(sys_cm, 40)
    grid = uniform_grid(sys_cm, 20)
    field = SampledField(grid, np.zeros(20), np.zeros(20), sys_cm.tf)
    with pytest.raises(RankDeficientError):
        recover_coefficients(basis, field, 40, policy="projection")


def test_project_coefficients_reproduces_a_mode(basis_cm):
    f_b = lambda x: basis_cm.phi(2, np.asarray(x, dtype=float))
    f_a = lambda x: basis_cm.phi(2, np.asarray(x, dtype=float))
    c = project_coefficients(basis_cm, (f_b, f_a), 6)
    want = np.zeros(6)
    want[2] = 1.0
    assert np.max(np.abs(c.c_b - want)) < 1e-12
    assert oracles.consistency_gap(c) == 0.0


def test_project_coefficients_refuses_more_modes_than_the_basis(basis_cm, sys_cm):
    # the norms are the basis' array, so a longer request must not be cut short silently
    grid = uniform_grid(sys_cm, 40)
    field = SampledField(grid, np.ones(40), np.ones(40), sys_cm.tf)
    for f in (field, (np.ones_like, np.ones_like)):
        with pytest.raises(ValidationError, match="modes requested"):
            project_coefficients(basis_cm, f, len(basis_cm) + 1)


def test_project_coefficients_sampled_route_agrees(basis_cm, sys_cm):
    grid = uniform_grid(sys_cm, 400)
    f = lambda x: np.cos(0.4 * np.asarray(x, dtype=float))
    field = SampledField(grid, f(grid.nodes_b), f(grid.nodes_a), sys_cm.tf)
    via_grid = project_coefficients(basis_cm, field, 5)
    via_quad = project_coefficients(basis_cm, (f, f), 5)
    # trapezoid on 400 nodes vs Gauss quadrature
    assert np.max(np.abs(via_grid.c_b - via_quad.c_b)) < 1e-5


def test_amplification_reference_value(basis_cm, sys_cm):
    amp = amplification_factors(basis_cm, 3, sys_cm.t0)
    assert amp[0] == 1.0
    assert amp[1] == pytest.approx(1.00898072894005, rel=1e-12)
    lam2 = basis_cm.modes[2].pair.lambda_bar
    assert amp[2] == pytest.approx(np.exp(lam2 * sys_cm.window), rel=1e-13)


def test_amplification_identity_at_final_time(basis_cm, sys_cm):
    assert np.all(amplification_factors(basis_cm, 8, sys_cm.tf) == 1.0)


def test_amplification_overflow_guard(basis_cm, sys_cm):
    with pytest.raises(AmplificationOverflowError):
        amplification_factors(basis_cm, 8, sys_cm.tf - 1e6)


def test_synthesize_single_mode(basis_cm, sys_cm):
    grid = uniform_grid(sys_cm, 10)
    c = np.zeros(4)
    c[3] = 0.25
    cv = CoeffVector(basis=basis_cm, c_b=c, c_a=c.copy())
    t = 0.03
    out = synthesize(basis_cm, cv, t, grid)
    amp = np.exp(basis_cm.modes[3].pair.lambda_bar * (sys_cm.tf - t))
    assert np.allclose(out.values_b, 0.25 * amp * basis_cm.phi(3, grid.nodes_b), rtol=1e-12)
    assert np.allclose(out.values_a, 0.25 * amp * basis_cm.phi(3, grid.nodes_a), rtol=1e-12)
    assert out.time == t


@given(cs=st.lists(st.floats(min_value=-1, max_value=1), min_size=7, max_size=7))
def test_projection_round_trips_random_series(basis_cm, sys_cm, cs):
    grid = uniform_grid(sys_cm, 30)
    c = np.array(cs)
    field = _in_span_field(basis_cm, np.pad(c, (0, 1)), grid, sys_cm.tf)
    got = recover_coefficients(basis_cm, field, 7, policy="projection")
    assert np.max(np.abs(got.c_b - c)) < 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("policy", RECOVERY_POLICIES)
def test_recovery_refuses_non_finite_coefficients(basis_cm, sys_cm, policy):
    # 1e306 cos(0.3 x) passes the condition guard; the per-slab fits of 8 modes
    # overflow quietly and are refused, the projection stays finite
    grid = uniform_grid(sys_cm, 20)
    field = SampledField(
        grid, 1e306 * np.cos(0.3 * grid.nodes_b), 1e306 * np.cos(0.3 * grid.nodes_a), sys_cm.tf
    )
    if policy == "projection":
        c = recover_coefficients(basis_cm, field, 8, policy=policy)
        assert np.isfinite(c.c_b).all() and np.isfinite(c.c_a).all()
    else:
        with pytest.raises(NumericalError, match="recovered coefficients hold a non-finite value"):
            recover_coefficients(basis_cm, field, 8, policy=policy)


@pytest.mark.filterwarnings("error")
def test_synthesize_refuses_a_series_that_overflows(basis_cm, sys_cm):
    # finite coefficients of 1e308, amplified at t0 past the double range
    c = np.full(8, 1e308)
    cv = CoeffVector(basis=basis_cm, c_b=c, c_a=c.copy())
    with pytest.raises(NumericalError, match="the series at t = 0.0 has a non-finite value"):
        synthesize(basis_cm, cv, sys_cm.t0, uniform_grid(sys_cm, 20))


def test_recovery_validates_policy_then_nodes_then_condition(basis_cm, basis_cm_20, sys_cm):
    few = SampledField(uniform_grid(sys_cm, 3), np.zeros(3), np.zeros(3), sys_cm.tf)
    with pytest.raises(ValidationError, match="unknown recovery policy"):
        recover_coefficients(basis_cm, few, 5, policy="bogus")
    with pytest.raises(ValidationError, match="slab b: 3 nodes cannot determine 5 modes"):
        recover_coefficients(basis_cm, few, 5, policy="least-squares")
    with pytest.raises(ValidationError, match="3\\+3 nodes cannot determine 7 modes"):
        recover_coefficients(basis_cm, few, 7, policy="projection")
    with pytest.raises(ValidationError, match="mode_count must be in"):
        recover_coefficients(basis_cm, few, 0, policy="strict-paper")
    # slab a lacks nodes while slab b alone would be refused as rank deficient
    grid = Grid(np.linspace(-5.0, 0.0, 40), np.linspace(0.0, 3.0, 3))
    field = SampledField(grid, np.zeros(40), np.zeros(3), sys_cm.tf)
    with pytest.raises(ValidationError, match="slab a: 3 nodes"):
        recover_coefficients(basis_cm_20, field, 20, policy="least-squares")
    enough = SampledField(uniform_grid(sys_cm, 40), np.zeros(40), np.zeros(40), sys_cm.tf)
    with pytest.raises(RankDeficientError):
        recover_coefficients(basis_cm_20, enough, 20, policy="least-squares")


@pytest.mark.parametrize("policy", ["least-squares", "strict-paper", "projection"])
def test_recovery_core_reuses_full_grid_matrices(basis_cm, sys_cm, policy):
    from twoslab.basis import slab_matrix
    from twoslab.spectral import _recover

    grid = uniform_grid(sys_cm, 25)
    field = _in_span_field(basis_cm, np.linspace(1.0, 0.2, 8), grid, sys_cm.tf)
    Pb = slab_matrix(basis_cm, grid.nodes_b, "b", 5)
    Pa = slab_matrix(basis_cm, grid.nodes_a, "a", 5)
    got = _recover(basis_cm, field, 5, policy, Pb, Pa)
    want = recover_coefficients(basis_cm, field, 5, policy)
    assert np.array_equal(got.c_b, want.c_b)
    assert np.array_equal(got.c_a, want.c_a)


# ---------------------------------------------------------------------------
# the condition guard reads the spectrum of the solve's own factorisation


def _prescribed(rng, n, s, factors):
    """An n x len(s) matrix U diag(s) V^T with singular values s.

    Signed permutations are orthogonal exactly in doubles, so the
    singular values are s to round-off.  Dense orthogonal factors round
    A's entries at eps * max(s), which moves a condition of 1e13 by up
    to about eps * 1e13 * sqrt(n), near 1e-2 relative.
    """
    m = len(s)
    if factors == "permutation":
        U = np.eye(n)[:, rng.permutation(n)[:m]] * rng.choice([-1.0, 1.0], m)
        V = np.eye(m)[:, rng.permutation(m)] * rng.choice([-1.0, 1.0], m)
    else:
        U = np.linalg.qr(rng.standard_normal((n, m)))[0]
        V = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (U * s) @ V.T


@pytest.mark.parametrize("factors,rtol", [("permutation", 1e-6), ("dense", 1e-2)])
@pytest.mark.parametrize("policy", ["least-squares", "projection"])
@pytest.mark.parametrize("condition", [1e11, 1e13])
def test_guard_verdict_on_prescribed_conditions(basis_cm, sys_cm, policy, condition, factors, rtol):
    from twoslab.spectral import _recover, _trapezoid_weights

    rng = np.random.default_rng(int(math.log10(condition)))
    n, m = 12, 6
    grid = uniform_grid(sys_cm, n)
    field = SampledField(grid, rng.standard_normal(n), rng.standard_normal(n), sys_cm.tf)
    s = np.geomspace(1.0, 1.0 / condition, m)
    if policy == "least-squares":
        Pb, Pa = _prescribed(rng, n, s, factors), _prescribed(rng, n, s, factors)
    else:
        # Pa = 0 and Pb = D^-1/2 U diag(sqrt s) V^T make the Gram V diag(s) V^T
        D = basis_cm.sys.weights[0] * _trapezoid_weights(grid.nodes_b)
        Pb = _prescribed(rng, n, np.sqrt(s), factors) / np.sqrt(D)[:, None]
        Pa = np.zeros((n, m))
    if condition < CONDITION_LIMIT:
        _recover(basis_cm, field, m, policy, Pb, Pa)
        return
    with pytest.raises(RankDeficientError, match="numerically rank deficient") as exc:
        _recover(basis_cm, field, m, policy, Pb, Pa)
    assert exc.value.condition == pytest.approx(condition, rel=rtol)


def test_guard_counts_an_exactly_singular_matrix_as_infinite(basis_cm, sys_cm):
    from twoslab.spectral import _recover

    grid = uniform_grid(sys_cm, 6)
    field = SampledField(grid, np.ones(6), np.ones(6), sys_cm.tf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for policy in ("least-squares", "projection"):
            with pytest.raises(RankDeficientError, match="condition inf") as exc:
                _recover(basis_cm, field, 3, policy, np.zeros((6, 3)), np.zeros((6, 3)))
            assert exc.value.condition == math.inf


def _cond_guarded_recover(basis, field, mode_count, policy):
    """The recovery guarded by np.linalg.cond before the same solves; None when refused."""
    from twoslab.spectral import _mode_matrices, _trapezoid_weights

    def refused(A):
        cond = float(np.linalg.cond(A))
        return cond > CONDITION_LIMIT or not math.isfinite(cond)

    Pb, Pa = _mode_matrices(basis, field.grid, mode_count)
    if policy == "projection":
        w_b, w_a = basis.sys.weights
        Wb = w_b * _trapezoid_weights(field.grid.nodes_b)
        Wa = w_a * _trapezoid_weights(field.grid.nodes_a)
        G = Pb.T @ (Wb[:, None] * Pb) + Pa.T @ (Wa[:, None] * Pa)
        r = Pb.T @ (Wb * field.values_b) + Pa.T @ (Wa * field.values_a)
        return None if refused(G) else (np.linalg.solve(G, r),) * 2
    out = []
    for A, values in ((Pb, field.values_b), (Pa, field.values_a)):
        if policy == "strict-paper":
            idx = _strict_subsample(len(A), mode_count)
            A, values = A[idx], values[idx]
        if refused(A):
            return None
        out.append(np.linalg.lstsq(A, values, rcond=None)[0])
    return tuple(out)


def test_guard_verdicts_and_coefficients_match_the_cond_guard(sys_cm, sys_explicit):
    verdicts = {True: 0, False: 0}
    for sys in (sys_cm, sys_explicit):
        basis = build_basis(sys, 40)
        rng = np.random.default_rng(17)
        for n in (5, 12, 20, 30, 60):
            grid = uniform_grid(sys, n)
            field = SampledField(grid, rng.standard_normal(n), rng.standard_normal(n), sys.tf)
            for m in range(1, 41):
                for policy in RECOVERY_POLICIES:
                    if m > (2 * n if policy == "projection" else n):
                        continue
                    want = _cond_guarded_recover(basis, field, m, policy)
                    try:
                        got = recover_coefficients(basis, field, m, policy)
                    except RankDeficientError:
                        got = None
                    assert (got is None) == (want is None), (sys, n, m, policy)
                    verdicts[got is None] += 1
                    if got is not None:
                        assert got.c_b.tobytes() == want[0].tobytes()
                        assert got.c_a.tobytes() == want[1].tobytes()
    assert min(verdicts.values()) > 100, verdicts


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls of the numpy.linalg factorisations, counted by name."""
    calls = collections.Counter()
    for name in ("cond", "svd", "lstsq", "eigvalsh", "solve"):
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


# the projection Gram's condition is certified without a factorisation here
_ONE_FACTORISATION = {
    "least-squares": {"lstsq": 2},
    "strict-paper": {"lstsq": 2},
    "projection": {"solve": 1},
}


@pytest.mark.parametrize("policy", RECOVERY_POLICIES)
def test_each_guarded_solve_factors_its_matrix_once(basis_cm, sys_cm, linalg_calls, policy):
    # the direct form, and a blocked grid whose least-squares solves are compressed
    for nodes in (20, COMPRESSED_MIN_NODES + 1):
        grid = uniform_grid(sys_cm, nodes)
        field = _in_span_field(basis_cm, np.linspace(1.0, 0.2, 8), grid, sys_cm.tf)
        linalg_calls.clear()
        forward_solve(basis_cm, field, grid, 6, policy=policy)
        assert dict(linalg_calls) == _ONE_FACTORISATION[policy], nodes
        linalg_calls.clear()
        reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=2.0)
        cutoff_reconstruct(basis_cm, field, reg, sys_cm.t0, policy=policy)
        assert dict(linalg_calls) == _ONE_FACTORISATION[policy], nodes


@pytest.mark.parametrize("rod", ["sys_cm", "sys_explicit", "sys_stiff"])
def test_compressed_fits_keep_the_dense_guard_verdicts(request, rod, monkeypatch):
    # at 10^4 nodes every least-squares fit is compressed; away from the limit
    # (a dense condition outside [1e11, 1e13]) it is refused exactly when the
    # dense fit is
    s = request.getfixturevalue(rod)
    basis = build_basis(s, 21)
    grid = uniform_grid(s, 10000)
    field = SampledField(grid, np.cos(0.3 * grid.nodes_b), np.cos(0.3 * grid.nodes_a), s.tf)
    conds = [
        max(np.linalg.cond(slab_matrix(basis, grid.nodes_b, "b", k)),
            np.linalg.cond(slab_matrix(basis, grid.nodes_a, "a", k)))
        for k in range(1, 22)
    ]

    def refuse(self):
        raise AssertionError("the N x k matrix was formed")

    monkeypatch.setattr(BlockedModes, "dense", refuse)
    verdicts = collections.Counter()
    for k, cond in enumerate(conds, start=1):
        if 1e11 <= cond <= 1e13:
            continue
        refused = cond > CONDITION_LIMIT
        try:
            recover_coefficients(basis, field, k, "least-squares")
        except RankDeficientError as exc:
            assert refused and exc.condition > CONDITION_LIMIT, (k, cond, exc.condition)
        else:
            assert not refused, (k, cond)
        verdicts[refused] += 1
    if rod == "sys_cm":
        # per-slab conditions grow about 6x a mode: a 21-mode fit stays refused
        assert conds[20] > 1e13 and verdicts[True] >= 5
    assert verdicts[False] >= 5, verdicts


def test_slice_solves_factor_each_matrix_once(sys_2d, linalg_calls):
    from twoslab.bilayer2d import find_modes_2d, reconstruct_2d_slice, slice_basis

    on_slice = slice_basis(find_modes_2d(sys_2d, 20.0), 0.3)
    c = np.linspace(1.0, 0.5, len(on_slice))
    grid = uniform_grid(sys_2d, len(on_slice))
    final = synthesize(on_slice, CoeffVector(basis=on_slice, c_b=c, c_a=c), sys_2d.tf, grid)
    linalg_calls.clear()
    reg = RegParams(epsilon=1e-6, beta=0.05, gamma=0.5, n_eps=20.0)
    reconstruct_2d_slice(sys_2d, final, reg, 0.3, sys_2d.t0)
    assert dict(linalg_calls) == {"lstsq": 2}


@pytest.mark.parametrize("policy,broken", [
    ("least-squares", "lstsq"),
    ("strict-paper", "lstsq"),
    ("projection", "solve"),
])
def test_unconverged_factorisation_fails_closed(basis_cm, span_data, monkeypatch, policy, broken):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, broken, fail)
    _, _, field = span_data
    with pytest.raises(RankDeficientError, match="coefficient recovery failed") as exc:
        recover_coefficients(basis_cm, field, 6, policy=policy)
    assert math.isnan(exc.value.condition)


# ---------------------------------------------------------------------------
# the projection Gram's condition, certified in O(k^2) before any eigvalsh

A0 = 3.180151750330678  # a Cu/Mo rod with b = 5 and a = A0 has cos(lambda_a a) = 0 at mode 5


@pytest.fixture(scope="module")
def certificate_rods(sys_cm, sys_explicit, sys_stiff):
    item7 = SlabSystem(b=5.0, a=A0 + 2e-6, mat_b=sys_cm.mat_b, mat_a=sys_cm.mat_a)
    return {
        "cu_mo": build_basis(sys_cm, 60),
        "unit": build_basis(sys_explicit, 60),  # degenerate interface at n = 4, 12, 20, ...
        "stiff": build_basis(sys_stiff, 60),
        "item7": build_basis(item7, 60),
    }


def _projection_gram(basis, nodes, modes):
    from twoslab.spectral import _mode_matrices, _trapezoid_system

    grid = uniform_grid(basis.sys, nodes)
    Pb, Pa = _mode_matrices(basis, grid, modes)
    w_b, w_a = basis.sys.weights
    zeros = np.zeros(nodes)
    G_b = _trapezoid_system(Pb, grid.nodes_b, zeros, w_b)[0]
    return G_b + _trapezoid_system(Pa, grid.nodes_a, zeros, w_a)[0]


@given(
    rod=st.sampled_from(["cu_mo", "unit", "stiff", "item7"]),
    nodes=st.integers(min_value=2, max_value=1100),
    modes=st.integers(min_value=1, max_value=60),
)
@example(rod="item7", nodes=20, modes=10)
@example(rod="unit", nodes=BLOCKED_MIN_NODES + 1, modes=60)
def test_certified_condition_is_never_below_eigvalsh(certificate_rods, rod, nodes, modes):
    from twoslab.spectral import _certified_condition

    assume(modes <= 2 * nodes)
    G = _projection_gram(certificate_rods[rod], nodes, modes)
    spectrum = np.abs(np.linalg.eigvalsh(G))
    cond = spectrum.max() / spectrum.min() if spectrum.min() > 0.0 else math.inf
    assert _certified_condition(G) >= cond


@pytest.mark.parametrize("rod,nodes,modes", [
    ("cu_mo", 20, 20), ("cu_mo", 51, 51), ("unit", 1000, 60),
    ("item7", 20, 10),  # condition 4.768e11: just under the limit, and certified
])
def test_well_conditioned_projection_runs_no_eigvalsh(certificate_rods, linalg_calls, rod, nodes, modes):
    from twoslab.spectral import _certified_condition

    basis = certificate_rods[rod]
    assert _certified_condition(_projection_gram(basis, nodes, modes)) <= CONDITION_LIMIT
    grid = uniform_grid(basis.sys, nodes)
    field = SampledField(grid, np.cos(0.3 * grid.nodes_b), np.cos(0.3 * grid.nodes_a), basis.sys.tf)
    linalg_calls.clear()
    recover_coefficients(basis, field, modes, "projection")
    assert dict(linalg_calls) == {"solve": 1}


def test_an_uncertified_gram_falls_back_to_one_eigvalsh(basis_cm, sys_cm, linalg_calls, monkeypatch):
    # condition 1e11 with dense eigenvectors: far from diagonal, so delta passes 1
    # and eigvalsh decides, once; an eigvalsh that does not converge fails closed
    from twoslab.spectral import _recover, _trapezoid_weights

    rng = np.random.default_rng(3)
    n, m = 12, 6
    grid = uniform_grid(sys_cm, n)
    field = SampledField(grid, rng.standard_normal(n), rng.standard_normal(n), sys_cm.tf)
    D = basis_cm.sys.weights[0] * _trapezoid_weights(grid.nodes_b)
    Pb = _prescribed(rng, n, np.sqrt(np.geomspace(1.0, 1e-11, m)), "dense") / np.sqrt(D)[:, None]
    Pa = np.zeros((n, m))
    _recover(basis_cm, field, m, "projection", Pb, Pa)
    assert dict(linalg_calls) == {"eigvalsh": 1, "solve": 1}

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(RankDeficientError, match="coefficient recovery failed") as exc:
        _recover(basis_cm, field, m, "projection", Pb, Pa)
    assert math.isnan(exc.value.condition)


@pytest.mark.filterwarnings("error")
def test_certificate_declines_degenerate_grams_quietly():
    from twoslab.spectral import _certified_condition

    good = np.diag([1.0, 4.0, 9.0])
    assert 9.0 <= _certified_condition(good) < 9.0 * (1 + 1e-12)
    for diag in ([0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0]):
        G = good.copy()
        np.fill_diagonal(G, diag)
        assert _certified_condition(G) == math.inf
    for off in (np.inf, np.nan, 0.9, 1e300):
        G = np.eye(3)
        G[0, 1] = G[1, 0] = off
        assert _certified_condition(G) == math.inf
    assert _certified_condition(np.zeros((3, 3))) == math.inf
