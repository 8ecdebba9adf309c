import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from twoslab.bilayer2d import eigen_f_2d
from twoslab.core import Material, NumericalError, SlabSystem
from twoslab.eigensolver import (
    TANGENCY_TOL,
    eigen_f,
    eigen_phase,
    find_eigenvalues,
    lambda_a_of,
    newton_demo,
    scan_roots,
)

UNIT = Material(K=1.0, kappa=1.0)


def test_explicit_roots_are_arithmetic(sys_explicit):
    # equal materials collapse the determinant to sin(lambda*(a+b))
    pairs = find_eigenvalues(sys_explicit, 30)
    ks = np.arange(31)
    got = np.array([p.lambda_b for p in pairs])
    assert np.max(np.abs(got - ks * math.pi / 8.0)) < 1e-10


def test_reference_first_root_against_high_precision(sys_cm):
    pytest.importorskip("mpmath")
    lam1 = find_eigenvalues(sys_cm, 1)[1].lambda_b
    oracle = oracles.mp_first_root(sys_cm, 0.3, 0.35)
    assert abs(lam1 - oracle) < 1e-10
    assert lam1 == pytest.approx(0.3266347178756259, abs=1e-9)


@pytest.mark.parametrize("fixture", ["sys_cm", "sys_explicit"])
def test_roots_match_brute_force_scan(fixture, request):
    s = request.getfixturevalue(fixture)
    pairs = find_eigenvalues(s, 25)
    oracle = oracles.brute_force_roots(s, 25)
    got = np.array([p.lambda_b for p in pairs[1:]])
    assert np.max(np.abs(got - oracle)) < 1e-9


def test_zero_mode_is_exact(sys_cm):
    p0 = find_eigenvalues(sys_cm, 3)[0]
    assert p0.lambda_b == 0.0 and p0.lambda_a == 0.0 and p0.lambda_bar == 0.0


def test_pair_relations(sys_cm):
    ratio = sys_cm.kappa_ratio_root()
    for p in find_eigenvalues(sys_cm, 10):
        assert p.lambda_a == pytest.approx(ratio * p.lambda_b, rel=1e-14, abs=1e-14)
        assert p.lambda_bar == pytest.approx(sys_cm.mat_b.kappa * p.lambda_b**2,
                                             rel=1e-14, abs=1e-14)


def test_roots_strictly_ascending(sys_cm):
    lams = [p.lambda_b for p in find_eigenvalues(sys_cm, 20)]
    assert all(x < y for x, y in zip(lams, lams[1:]))


@pytest.mark.parametrize("b", [5.0, 4000.0, 6000.0])
def test_unit_material_roots_exact_for_any_width(b):
    # root spacing pi/(a+b) goes far below any fixed scan step here
    s = SlabSystem(b=b, a=3.0, mat_b=UNIT, mat_a=UNIT)
    lam = np.array([p.lambda_b for p in find_eigenvalues(s, 400)])
    assert np.max(np.abs(lam - np.arange(401) * math.pi / (3.0 + b))) < 1e-10


def test_stiff_roots_against_high_precision(sys_stiff):
    pytest.importorskip("mpmath")
    lam = [p.lambda_b for p in find_eigenvalues(sys_stiff, 400)[1:]]
    refined = oracles.mp_refine_roots(sys_stiff, lam)
    assert np.max(np.abs(np.array(refined) - lam)) < 1e-10


@pytest.mark.parametrize("fixture, count", [("sys_cm", 2000), ("sys_stiff", 400)])
def test_dense_sign_change_count_equals_root_count(fixture, count, request):
    s = request.getfixturevalue(fixture)
    lam = [p.lambda_b for p in find_eigenvalues(s, count)]
    # (0, lambda_N] plus half the last gap, so the last crossing is inside
    hi = lam[-1] + 0.5 * (lam[-1] - lam[-2])
    assert oracles.sign_change_count(s, hi, 10**6) == count


def test_eigen_phase_is_increasing_and_hits_n_pi_at_roots(sys_cm):
    xs = np.linspace(0.0, 40.0, 20001)
    assert np.all(np.diff(eigen_phase(xs, sys_cm)) > 0)
    pairs = find_eigenvalues(sys_cm, 100)
    got = eigen_phase(np.array([p.lambda_b for p in pairs]), sys_cm)
    assert np.max(np.abs(got - np.arange(101) * math.pi)) < 1e-12


def test_find_eigenvalues_rejects_negative_count(sys_cm):
    with pytest.raises(NumericalError):
        find_eigenvalues(sys_cm, -1)


def test_eigen_f_vectorization_consistency(sys_cm):
    xs = np.linspace(0.1, 2.0, 7)
    vec = eigen_f(xs, sys_cm)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert float(eigen_f(x, sys_cm)) == pytest.approx(v, rel=1e-15)


def test_eigen_f_changes_sign_across_simple_roots(sys_cm):
    for p in find_eigenvalues(sys_cm, 5)[1:]:
        left = float(eigen_f(p.lambda_b - 1e-4, sys_cm))
        right = float(eigen_f(p.lambda_b + 1e-4, sys_cm))
        assert left * right < 0


@given(x=st.floats(min_value=1e-3, max_value=50.0))
def test_eigen_f_is_odd(sys_cm, x):
    assert float(eigen_f(-x, sys_cm)) == pytest.approx(-float(eigen_f(x, sys_cm)),
                                                       rel=1e-12, abs=1e-12)


def test_lambda_a_of_uses_diffusivity_ratio(sys_cm):
    assert lambda_a_of(2.0, sys_cm) == pytest.approx(2.0 * sys_cm.kappa_ratio_root(),
                                                     rel=1e-15)


def test_scan_roots_on_sine():
    roots = scan_roots(np.sin, 0.5, 10.0, 1e-3, 1e-12)
    assert len(roots) == 3
    assert np.allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-10)


def test_scan_roots_accepts_tangency_grid_hit():
    # (x-2)^2 never changes sign; the on-grid zero must still be reported
    roots = scan_roots(lambda x: (np.asarray(x) - 2.0) ** 2, 1.5, 2.5, 1e-3, 1e-12)
    assert roots == [2.0]


def test_scan_roots_respects_max_roots():
    roots = scan_roots(np.sin, 0.5, 50.0, 1e-3, 1e-12, max_roots=4)
    assert len(roots) == 4


def _loop_scan_roots(f, lo, hi, scan_step, refine_tol, max_roots=None):
    """Point-by-point scan with scalar bisection: the reference for scan_roots."""

    def bisect(lo, hi, flo):
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            fmid = float(f(mid))
            if fmid == 0.0:
                return mid
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        return 0.5 * (lo + hi)

    n_steps = int(math.ceil((hi - lo) / scan_step))
    if n_steps < 1:
        return []
    xs = lo + scan_step * np.arange(n_steps + 1)
    xs[-1] = min(xs[-1], hi)
    fs = np.asarray(f(xs), dtype=float)
    zeroish = np.abs(fs) <= TANGENCY_TOL
    roots = []
    for i in range(len(xs) - 1):
        if max_roots is not None and len(roots) >= max_roots:
            return roots
        if zeroish[i]:
            if not roots or xs[i] - roots[-1] > scan_step / 2:
                roots.append(float(xs[i]))
        elif not zeroish[i + 1] and fs[i] * fs[i + 1] < 0.0:
            roots.append(bisect(xs[i], xs[i + 1], fs[i]))
    if zeroish[-1] and (not roots or xs[-1] - roots[-1] > scan_step / 2):
        roots.append(float(xs[-1]))
    return roots[:max_roots]


def _flat_zero(x):
    # zero on [1.9985, 2.0015]: three consecutive grid hits at step 1e-3
    return np.maximum(np.abs(np.asarray(x) - 2.0) - 0.0015, 0.0)


@pytest.mark.parametrize(
    "f, lo, hi, max_roots",
    [
        (np.sin, 0.5, 50.0, None),
        (np.sin, 0.5, 50.0, 4),
        (np.sin, 0.0, 10.0, None),
        (lambda x: (np.asarray(x) - 2.0) ** 2, 1.5, 2.5, None),
        (_flat_zero, 1.5, 2.5, None),
        # last node clipped to 2.0004, half a step from the hit at 2.0
        (_flat_zero, 1.5, 2.0004, None),
        (np.sin, 1.0, 0.5, None),
    ],
)
def test_scan_roots_matches_loop_reference(f, lo, hi, max_roots):
    assert scan_roots(f, lo, hi, 1e-3, 1e-12, max_roots) == _loop_scan_roots(
        f, lo, hi, 1e-3, 1e-12, max_roots
    )


@pytest.mark.parametrize("m", [1, 3, 6])
def test_scan_roots_matches_loop_reference_on_plate_determinant(sys_2d, m):
    mu = m * math.pi / sys_2d.c
    f = lambda v: eigen_f_2d(v, mu, sys_2d)
    assert scan_roots(f, 0.0, 30.0, 1e-3, 1e-12) == _loop_scan_roots(f, 0.0, 30.0, 1e-3, 1e-12)


def test_newton_multistart_collapses_close_guesses(sys_cm):
    # five starts straddling the first three roots; merging the nearby
    # endpoints silently drops two of them
    ratio = sys_cm.kappa_ratio_root()
    gset = [0.30, 0.35, 0.60, 0.65, 0.95]
    rep = newton_demo(sys_cm, np.array([[g, ratio * g] for g in gset]))
    assert rep.distinct_count == 3
    assert rep.missed is True


def test_newton_endpoints_are_genuine_roots(sys_cm):
    ratio = sys_cm.kappa_ratio_root()
    gset = [0.2, 0.5, 0.8, 1.1, 1.4]
    rep = newton_demo(sys_cm, np.array([[g, ratio * g] for g in gset]))
    for r in rep.roots_found:
        assert abs(float(eigen_f(abs(r), sys_cm))) < 1e-8
