"""The array core of the eigen-elements against per-mode loop references.

``build_basis``, ``find_eigenvalues`` and ``find_modes_2d`` compute every
mode's frequencies, amplitudes, norms and decay rates as array
expressions and build the records in one pass.  The references below are
the per-mode scalar forms (``math`` functions, Python ``**``, one 2x2 SVD
per degenerate mode, a Python sort); records and arrays must match them
bit for bit.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslab.basis import (
    DEGENERATE_COS_TOL,
    EigenMode,
    _interface_null_vectors,
    build_basis,
    slab_grams,
)
from twoslab.bilayer2d import Mode2D, find_modes_2d, nu_a_of
from twoslab.core import Material, SlabSystem
from twoslab.eigensolver import EigenValuePair, _phase_roots, eigen_phase, find_eigenvalues

CU, MO, UNIT = Material(K=3.42, kappa=0.838), Material(K=1.05, kappa=0.339), Material(1.0, 1.0)
RODS = {
    "cu_mo": SlabSystem(b=5.0, a=3.0, mat_b=CU, mat_a=MO),
    "unit": SlabSystem(b=5.0, a=3.0, mat_b=UNIT, mat_a=UNIT),
    "stiff": SlabSystem(b=1.0, a=7.0, mat_b=Material(100.0, 0.01), mat_a=Material(0.01, 50.0)),
    "wide": SlabSystem(b=4000.0, a=3.0, mat_b=UNIT, mat_a=UNIT),
}
PLATES = {
    "cu_mo": SlabSystem(b=1.0, a=1.0, c=1.0, mat_b=CU, mat_a=MO),
    "mo_cu": SlabSystem(b=1.0, a=1.0, c=1.0, mat_b=MO, mat_a=CU),
    "unit": SlabSystem(b=1.0, a=1.0, c=1.0, mat_b=UNIT, mat_a=UNIT),
    "rect": SlabSystem(b=0.7, a=1.3, c=2.5, mat_b=CU, mat_a=MO),
}


# ---------------------------------------------------------------------------
# per-mode references


def _loop_find_eigenvalues(sys, N):
    ratio = sys.kappa_ratio_root()
    ends = (np.arange(N + 1) + 0.5) * (math.pi / (sys.b + ratio * sys.a))
    roots = _phase_roots(sys, ends[:-1], ends[1:], np.arange(1, N + 1) * math.pi)
    pairs = [EigenValuePair(0, 0.0, 0.0, 0.0)]
    for k, lam_b in enumerate(roots.tolist(), start=1):
        pairs.append(EigenValuePair(k, lam_b, ratio * lam_b, sys.mat_b.kappa * lam_b**2))
    return pairs


def _loop_null_vector(sys, lam_b, lam_a):
    A = np.array(
        [
            [math.cos(lam_b * sys.b), -math.cos(lam_a * sys.a)],
            [
                sys.mat_b.K * lam_b * math.sin(lam_b * sys.b),
                sys.mat_a.K * lam_a * math.sin(lam_a * sys.a),
            ],
        ]
    )
    _, _, vt = np.linalg.svd(A)
    theta = vt[-1]
    lead = theta[0] if abs(A[0, 0]) < DEGENERATE_COS_TOL else theta[1]
    if lead < 0:
        theta = -theta
    return float(theta[0]), float(theta[1])


def _loop_amplitudes(sys, lam_b, lam_a):
    cos_b, cos_a = math.cos(lam_b * sys.b), math.cos(lam_a * sys.a)
    if abs(cos_b) < DEGENERATE_COS_TOL or abs(cos_a) < DEGENERATE_COS_TOL:
        return *_loop_null_vector(sys, lam_b, lam_a), True
    return 1.0 / cos_b, 1.0 / cos_a, False


def _loop_sinc(x):
    if x == 0.0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def _loop_norms(sys, pair, amp_b, amp_a):
    """Each layer's amp^2 (L/2) (1 +- sinc(2 lambda L/pi)), summed over the layers."""
    N = M = 0.0
    for w, mat, lam, length, amp in (
        (sys.weights[0], sys.mat_b, pair.lambda_b, sys.b, amp_b),
        (sys.weights[1], sys.mat_a, pair.lambda_a, sys.a, amp_a),
    ):
        sq = amp * amp * (0.5 * length)
        wobble = _loop_sinc((lam + lam) * (length / math.pi))
        N += w * (sq * (1.0 + wobble))
        M += mat.K * lam**2 * (sq * (1.0 - wobble))
    return N, M


def _loop_build_basis(sys, count):
    modes = []
    for pair in _loop_find_eigenvalues(sys, count - 1):
        amp_b, amp_a, degenerate = _loop_amplitudes(sys, pair.lambda_b, pair.lambda_a)
        N, M = _loop_norms(sys, pair, amp_b, amp_a)
        modes.append(EigenMode(pair, N, M, amp_b, amp_a, degenerate))
    return tuple(modes)


def _loop_find_modes_2d(sys, n_eps):
    """The plate's roots as ``find_modes_2d`` bisects them, with records built mode by mode."""
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    nu_max = math.sqrt(n_eps / kb)
    ms = np.arange(int(nu_max * sys.c / math.pi) + 2)
    mu = ms * math.pi / sys.c
    nu_hi = np.sqrt(np.maximum(n_eps / kb - mu**2, 0.0))
    nu_lo = mu * math.sqrt(max(0.0, ka / kb - 1.0))
    keep = (kb * mu**2 <= n_eps) & (nu_hi >= nu_lo)
    ms, mu, nu_lo, nu_hi = ms[keep], mu[keep], nu_lo[keep], nu_hi[keep]
    at_lo, at_hi = eigen_phase(nu_lo, sys, mu), eigen_phase(nu_hi, sys, mu)
    first, last = np.ceil(at_lo / math.pi), np.floor(at_hi / math.pi)
    counts = np.maximum(last - first + 1.0, 0.0).astype(int)
    n = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    target = (np.repeat(first, counts) + n) * math.pi
    m_of, mu_of = np.repeat(ms, counts), np.repeat(mu, counts)
    roots = np.repeat(nu_lo, counts)
    todo = np.repeat(at_lo, counts) != target
    roots[todo] = _phase_roots(
        sys, roots[todo], np.repeat(nu_hi, counts)[todo], target[todo], mu_of[todo]
    )
    modes = [
        Mode2D(
            m, n_m, mu_m, nu_b, nu_a, kb * (nu_b**2 + mu_m**2),
            *_loop_amplitudes(sys, nu_b, nu_a),
        )
        for m, n_m, mu_m, nu_b, nu_a in zip(
            m_of.tolist(), n.tolist(), mu_of.tolist(), roots.tolist(),
            nu_a_of(roots, mu_of, sys).tolist(),
        )
    ]
    modes.sort(key=lambda md: (md.lambda_bar, md.m, md.n))
    return tuple(modes)


def _same_bits(array, values):
    want = np.array(values, dtype=float)
    return array.dtype == want.dtype and array.shape == want.shape and (
        array.tobytes() == want.tobytes()
    )


# ---------------------------------------------------------------------------
# bit-identity


@pytest.mark.parametrize("count", [1, 2, 51, 403, 2000])
@pytest.mark.parametrize("rod", sorted(RODS))
def test_build_basis_matches_the_per_mode_loop_bit_for_bit(rod, count):
    sys = RODS[rod]
    basis = build_basis(sys, count)
    want = _loop_build_basis(sys, count)
    assert pickle.dumps(basis.modes) == pickle.dumps(want)
    assert pickle.dumps(find_eigenvalues(sys, count - 1)) == pickle.dumps([m.pair for m in want])
    for name, values in (
        ("lambda_b", [m.pair.lambda_b for m in want]),
        ("lambda_a", [m.pair.lambda_a for m in want]),
        ("lambda_bar", [m.pair.lambda_bar for m in want]),
        ("amp_b", [m.amp_b for m in want]),
        ("amp_a", [m.amp_a for m in want]),
        ("norm_N", [m.norm_N for m in want]),
    ):
        assert _same_bits(getattr(basis, name), values), name
    assert basis.lambda_bars() is basis.lambda_bar


@pytest.mark.parametrize("rod", sorted(RODS))
def test_norms_are_the_weighted_gram_diagonal(rod):
    sys = RODS[rod]
    basis = build_basis(sys, 403)
    Gb, Ga = slab_grams(basis)
    w_b, w_a = sys.weights
    assert _same_bits(basis.norm_N, w_b * np.diag(Gb) + w_a * np.diag(Ga))
    norm_M = np.array([m.norm_M for m in basis.modes])
    assert norm_M[0] == 0.0
    assert np.all(np.abs(norm_M - basis.lambda_bar * basis.norm_N) <= 1e-12 * norm_M)


@pytest.mark.parametrize("rod, degenerate", [("cu_mo", 0), ("unit", 50), ("stiff", 15)])
def test_degenerate_modes_share_one_stacked_svd(rod, degenerate, monkeypatch):
    shapes = []
    real = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda A, *a, **k: shapes.append(A.shape) or real(A, *a, **k)
    )
    basis = build_basis(RODS[rod], 403)
    assert sum(m.degenerate_interface for m in basis.modes) == degenerate
    assert shapes == ([(degenerate, 2, 2)] if degenerate else [])


@pytest.mark.parametrize("n_eps", [0.0, 0.5, 1.38, 3.4, 27.6, 60.0, 250.0, 1000.0])
@pytest.mark.parametrize("plate", sorted(PLATES))
def test_find_modes_2d_matches_the_per_mode_loop_bit_for_bit(plate, n_eps):
    sys = PLATES[plate]
    basis2d = find_modes_2d(sys, n_eps)
    want = _loop_find_modes_2d(sys, n_eps)
    assert pickle.dumps(basis2d.modes) == pickle.dumps(want)
    for name, field in (
        ("lambda_b", "nu_b"),
        ("lambda_a", "nu_a"),
        ("lambda_bar", "lambda_bar"),
        ("amp_b", "amp_b"),
        ("amp_a", "amp_a"),
    ):
        assert _same_bits(getattr(basis2d, name), [getattr(md, field) for md in want]), name
    assert basis2d.lambda_bars() is basis2d.lambda_bar


def test_plate_order_breaks_decay_rate_ties_by_m_then_n():
    # unit materials on a square plate give several modes the same lambda_bar
    modes = find_modes_2d(PLATES["unit"], 60.0).modes
    keys = [(md.lambda_bar, md.m, md.n) for md in modes]
    assert keys == sorted(keys)
    assert len({md.lambda_bar for md in modes}) < len(modes)


# ---------------------------------------------------------------------------
# the stacked null vectors


@st.composite
def _interface_systems(draw):
    """A rod and frequencies, half of them within 1e-9 of a vanishing cos(lambda_b b)."""
    length = st.floats(0.2, 8.0)
    material = st.builds(Material, K=st.floats(1e-2, 1e2), kappa=st.floats(1e-2, 1e2))
    sys = SlabSystem(b=draw(length), a=draw(length), mat_b=draw(material), mat_a=draw(material))
    ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    nudge = draw(st.lists(st.floats(-1e-9, 1e-9), min_size=len(ks), max_size=len(ks)))
    free = draw(st.lists(st.floats(1e-3, 40.0), min_size=len(ks), max_size=len(ks)))
    lam_b = [
        (k + 0.5) * math.pi / sys.b + d if i % 2 else f
        for i, (k, d, f) in enumerate(zip(ks, nudge, free))
    ]
    return sys, np.array(lam_b)


@given(case=_interface_systems())
def test_stacked_null_vectors_match_the_per_mode_svd(case):
    sys, lam_b = case
    lam_a = sys.kappa_ratio_root() * lam_b
    cos_b, cos_a = np.cos(lam_b * sys.b), np.cos(lam_a * sys.a)
    th_b, th_a = _interface_null_vectors(sys, lam_b, lam_a, cos_b, cos_a)
    want = [_loop_null_vector(sys, lb, la) for lb, la in zip(lam_b.tolist(), lam_a.tolist())]
    assert list(zip(th_b.tolist(), th_a.tolist())) == want
