import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from twoslab.bilayer2d import eigen_f_2d, find_modes_2d
from twoslab.core import Material, NumericalError, SlabSystem, ValidationError
from twoslab.eigensolver import (
    MAX_MODES,
    _bisect_brackets,
    eigen_f,
    eigen_phase,
    find_eigenvalues,
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


@pytest.mark.parametrize("fixture", ["sys_cm", "sys_stiff", "sys_2d"])
def test_eigen_phase_is_the_slab_phase_wherever_mu_vanishes(fixture, request):
    # the plate bisects m = 0 and m > 0 targets in one call, so an element
    # with mu = 0 must take the slab phase bit for bit whatever its neighbours
    s = request.getfixturevalue(fixture)
    xs = np.linspace(0.0, 40.0, 20001)
    mu = np.where(np.arange(len(xs)) % 2, 0.0, 3.0)
    assert np.array_equal(eigen_phase(xs, s, mu)[1::2], eigen_phase(xs, s)[1::2])
    assert np.array_equal(eigen_phase(xs, s, 0.0), eigen_phase(xs, s))


def test_find_eigenvalues_rejects_negative_count(sys_cm):
    with pytest.raises(NumericalError):
        find_eigenvalues(sys_cm, -1)


@pytest.mark.parametrize("N", [MAX_MODES, 10**8, 10**18])
def test_find_eigenvalues_refuses_more_than_max_modes_before_allocating(sys_cm, N):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"at most {MAX_MODES}"):
            find_eigenvalues(sys_cm, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_find_eigenvalues_accepts_max_modes(sys_explicit):
    assert len(find_eigenvalues(sys_explicit, MAX_MODES - 1)) == MAX_MODES


@pytest.mark.parametrize("size, count", [(1e308, 0), (1e308, 5), (1e-308, 1)])
def test_find_eigenvalues_rejects_collapsed_brackets(size, count):
    mat = Material(K=3.42, kappa=0.838)
    with pytest.raises(ValidationError, match="root brackets"):
        find_eigenvalues(SlabSystem(b=size, a=size, mat_b=mat, mat_a=mat), count)


def test_find_eigenvalues_accepts_extreme_but_representable_geometry():
    mat = Material(K=1.0, kappa=1.0)
    pairs = find_eigenvalues(SlabSystem(b=1e300, a=1e300, mat_b=mat, mat_a=mat), 5)
    lam = np.array([p.lambda_b for p in pairs])
    assert np.all(np.diff(lam) > 0)


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


def _loop_scan_roots(f, lo, hi, scan_step, refine_tol):
    """Point-by-point sign-change scan with scalar bisection of each bracket."""

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

    xs = lo + scan_step * np.arange(int(math.ceil((hi - lo) / scan_step)) + 1)
    xs[-1] = min(xs[-1], hi)
    fs = np.asarray(f(xs), dtype=float)
    roots = []
    for i in range(len(xs) - 1):
        if fs[i] == 0.0:
            roots.append(float(xs[i]))
        elif fs[i] * fs[i + 1] < 0.0:
            roots.append(bisect(xs[i], xs[i + 1], fs[i]))
    return roots


@pytest.mark.parametrize("m", [1, 3, 6])
def test_scan_roots_matches_loop_reference_on_plate_determinant(sys_2d, m):
    # the phase-indexed plate roots of one transverse index are the sign
    # changes of the plate determinant that a fine loop scan finds
    mu = m * math.pi / sys_2d.c
    f = lambda v: eigen_f_2d(v, mu, sys_2d)
    ref = _loop_scan_roots(f, 0.0, 30.0, 1e-3, 1e-12)
    n_eps = sys_2d.mat_b.kappa * (31.0**2 + mu**2)
    got = sorted(md.nu_b for md in find_modes_2d(sys_2d, n_eps).modes
                 if md.m == m and md.nu_b <= 30.0)
    assert len(got) == len(ref)
    assert np.max(np.abs(np.array(got) - ref)) <= 1e-12


def _kinked(x, root, flat, cut, band):
    """sign(x - root) * max(|x - root| - flat, 0), NaN on [cut, cut + band]; elementwise.

    Exactly zero within ``flat`` of the root, so midpoints can hit it.
    """
    d = x - root
    value = np.sign(d) * np.maximum(np.abs(d) - flat, 0.0)
    return np.where((cut <= x) & (x <= cut + band), np.nan, value)


def _scalar_bisect(f, lo, hi):
    """One bracket at a time, f < 0 at lo: the reference for _bisect_brackets."""
    while hi > lo:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        stalled = mid in (lo, hi)
        if fm > 0.0:
            hi = mid
        else:
            lo = mid
        if stalled:
            break
    return 0.5 * (lo + hi)


@st.composite
def _brackets(draw):
    """(lo, hi, root, flat, cut, band) of one bracket of ``_kinked``, negative at lo."""
    lo = draw(st.floats(-10.0, 10.0))
    kind = draw(st.sampled_from(["empty", "ulp", "wide", "dyadic"]))
    if kind == "dyadic":
        # dyadic ends, root and flat: a midpoint lands exactly on a zero
        lo = float(math.floor(lo))
        hi = lo + 2.0 ** draw(st.integers(-3, 3))
        k = draw(st.integers(1, 16))
        root = lo + (hi - lo) * k / 16.0
        flat = (hi - lo) * draw(st.integers(0, k - 1)) / 16.0
    else:
        if kind == "empty":
            hi = lo
        elif kind == "ulp":
            # adjacent doubles: the first midpoint stalls
            hi = float(np.nextafter(lo, math.inf))
        else:
            hi = lo + draw(st.floats(0.0, 10.0))
        flat = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        root = lo + flat + draw(st.floats(1e-3, 24.0))
    # the NaN band starts above lo, so f(lo) is a number
    cut = draw(st.one_of(st.just(math.inf), st.floats(lo, 24.0, exclude_min=True)))
    band = draw(st.one_of(st.just(math.inf), st.floats(0.0, 5.0)))
    assume(_kinked(lo, root, flat, cut, band) < 0.0)
    return lo, hi, root, flat, cut, band


@given(brackets=st.lists(_brackets(), max_size=8))
def test_bisect_brackets_matches_scalar_bisection(brackets):
    lo, hi, root, flat, cut, band = np.array(brackets, dtype=float).reshape(-1, 6).T
    # each call halves every open bracket once.  Halving a span of finite
    # doubles, at most 2^1024 wide, down to the subnormal spacing 2^-1074
    # takes at most about 2100 halvings, so a budget of 2200 calls turns a
    # bracket that never closes into a failure instead of a hang
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        if calls > 2200:
            raise AssertionError("a bracket did not close within 2200 halvings")
        return _kinked(x, root, flat, cut, band)

    got = _bisect_brackets(f, lo, hi)
    want = [_scalar_bisect(lambda x: _kinked(x, *b[2:]), *b[:2]) for b in brackets]
    assert got.tolist() == want


def test_bisect_brackets_moves_lo_past_a_nan_band():
    # the band [0.4, 0.6] covers the first midpoint 0.5: each NaN must move
    # lo up, or the bracket never closes; f gives up after 200 values
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise AssertionError("the bracket did not close within 200 values")
        return _kinked(x, 0.8, 0.0, 0.4, 0.2)

    got = _bisect_brackets(f, [0.0], [1.0])
    assert got.tolist() == [_scalar_bisect(lambda x: _kinked(x, 0.8, 0.0, 0.4, 0.2), 0.0, 1.0)]
    assert abs(got[0] - 0.8) < 1e-15
