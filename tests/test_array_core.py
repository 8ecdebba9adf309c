"""The array core of the eigen-elements against per-mode loop references.

``build_basis``, ``find_eigenvalues`` and ``find_modes_2d`` compute every
mode's frequencies, amplitudes, norms and decay rates as array
expressions.  ``find_eigenvalues`` returns its roots as one record array;
a basis builds the record array ``modes`` from its columns when it is
first read, and a build or a slice never reads it.  The references below
are the per-mode scalar forms (``math`` functions, Python ``**``, the
unit normal of one flux row per degenerate mode, a Python sort), one
tuple per mode; every field of the record arrays, and every column, must
match them bit for bit.  The degenerate amplitudes are also held against
a per-mode SVD of the 2x2 interface system.  Rod and plate share the one
``EigenBasis`` type, whose ``modes``, norms and Gauss-Legendre rule are
derived from the columns on first read.
"""

import math
from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest

import twoslab.basis as basis_module
from twoslab.basis import (
    DEGENERATE_COS_TOL,
    PANEL_ORDER,
    PANEL_PHASE,
    EigenBasis,
    _composite_rule,
    _interface_amplitudes,
    build_basis,
    slab_grams,
)
from twoslab.bilayer2d import find_modes_2d, nu_a_of, slice_basis, y_mode
from twoslab.core import Material, SlabSystem
from twoslab.eigensolver import _phase_roots, eigen_phase, find_eigenvalues

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
    pairs = [(0, 0.0, 0.0, 0.0)]
    for k, lam_b in enumerate(roots.tolist(), start=1):
        pairs.append((k, lam_b, ratio * lam_b, sys.mat_b.kappa * lam_b**2))
    return pairs


def _loop_flux_normal(sys, lam_b, lam_a):
    """Unit normal of the flux row, its component that cannot vanish positive."""
    theta_b = sys.mat_a.K * lam_a * math.sin(lam_a * sys.a)
    theta_a = -sys.mat_b.K * lam_b * math.sin(lam_b * sys.b)
    lead = theta_b if abs(math.cos(lam_b * sys.b)) < DEGENERATE_COS_TOL else theta_a
    norm = math.copysign(float(np.hypot(theta_b, theta_a)), lead)
    return theta_b / norm, theta_a / norm


def _loop_amplitudes(sys, lam_b, lam_a):
    cos_b, cos_a = math.cos(lam_b * sys.b), math.cos(lam_a * sys.a)
    if abs(cos_b) < DEGENERATE_COS_TOL or abs(cos_a) < DEGENERATE_COS_TOL:
        return *_loop_flux_normal(sys, lam_b, lam_a), True
    return 1.0 / cos_b, 1.0 / cos_a, False


def _loop_sinc(x):
    if x == 0.0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def _loop_norms(sys, lam_b, lam_a, amp_b, amp_a):
    """Each layer's amp^2 (L/2) (1 +- sinc(2 lambda L/pi)), summed over the layers."""
    N = M = 0.0
    for w, mat, lam, length, amp in (
        (sys.weights[0], sys.mat_b, lam_b, sys.b, amp_b),
        (sys.weights[1], sys.mat_a, lam_a, sys.a, amp_a),
    ):
        sq = amp * amp * (0.5 * length)
        wobble = _loop_sinc((lam + lam) * (length / math.pi))
        N += w * (sq * (1.0 + wobble))
        M += mat.K * lam**2 * (sq * (1.0 - wobble))
    return N, M


def _loop_build_basis(sys, count):
    """Rows (pair, norm_N, norm_M, amp_b, amp_a, degenerate) built mode by mode."""
    modes = []
    for pair in _loop_find_eigenvalues(sys, count - 1):
        _, lam_b, lam_a, _ = pair
        amp_b, amp_a, degenerate = _loop_amplitudes(sys, lam_b, lam_a)
        modes.append((pair, *_loop_norms(sys, lam_b, lam_a, amp_b, amp_a), amp_b, amp_a, degenerate))
    return modes


def _loop_find_modes_2d(sys, n_eps):
    """The plate's roots as ``find_modes_2d`` bisects them, with rows built mode by mode."""
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
        (
            m, n_m, mu_m, nu_b, nu_a, kb * (nu_b**2 + mu_m**2),
            *_loop_amplitudes(sys, nu_b, nu_a),
        )
        for m, n_m, mu_m, nu_b, nu_a in zip(
            m_of.tolist(), n.tolist(), mu_of.tolist(), roots.tolist(),
            nu_a_of(roots, mu_of, sys).tolist(),
        )
    ]
    modes.sort(key=lambda md: (md[5], md[0], md[1]))  # (lambda_bar, m, n)
    return modes


def _same_bits(array, values):
    want = np.array(values, dtype=float)
    return array.dtype == want.dtype and array.shape == want.shape and (
        array.tobytes() == want.tobytes()
    )


ROOT_FIELDS = ("n", "lambda_b", "lambda_a", "lambda_bar")
ROD_FIELDS = (("pair", ROOT_FIELDS), "norm_N", "norm_M", "amp_b", "amp_a", "degenerate_interface")
PLATE_FIELDS = (
    "m", "n", "mu", "nu_b", "nu_a", "lambda_bar", "amp_b", "amp_a", "degenerate_interface"
)


def _assert_rows(records, rows, names):
    """A record array whose fields, in order, hold the rows' values bit for bit.

    A (name, names) entry is a nested record field.  Each field has the
    dtype numpy gives the rows' Python values: int64, float64 or bool.
    """
    assert isinstance(records, np.recarray)
    assert records.shape == (len(rows),)
    assert records.dtype.names == tuple(f if isinstance(f, str) else f[0] for f in names)
    for i, field in enumerate(names):
        values = [row[i] for row in rows]
        if isinstance(field, tuple):
            _assert_rows(records[field[0]], values, field[1])
            continue
        want = np.array(values)
        got = records[field]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field


# ---------------------------------------------------------------------------
# bit-identity


@pytest.mark.parametrize("count", [1, 2, 51, 403, 2000])
@pytest.mark.parametrize("rod", sorted(RODS))
def test_build_basis_matches_the_per_mode_loop_bit_for_bit(rod, count):
    sys = RODS[rod]
    basis = build_basis(sys, count)
    want = _loop_build_basis(sys, count)
    _assert_rows(basis.modes, want, ROD_FIELDS)
    _assert_rows(find_eigenvalues(sys, count - 1), [row[0] for row in want], ROOT_FIELDS)
    for name, values in (
        ("lambda_b", [row[0][1] for row in want]),
        ("lambda_a", [row[0][2] for row in want]),
        ("lambda_bar", [row[0][3] for row in want]),
        ("norm_N", [row[1] for row in want]),
        ("amp_b", [row[3] for row in want]),
        ("amp_a", [row[4] for row in want]),
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
def test_degenerate_modes_run_no_svd(rod, degenerate, monkeypatch):
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
    basis = build_basis(RODS[rod], 403)
    assert sum(m.degenerate_interface for m in basis.modes) == degenerate
    assert calls == []


@pytest.mark.parametrize("n_eps", [0.0, 0.5, 1.38, 3.4, 27.6, 60.0, 250.0, 1000.0])
@pytest.mark.parametrize("plate", sorted(PLATES))
def test_find_modes_2d_matches_the_per_mode_loop_bit_for_bit(plate, n_eps):
    sys = PLATES[plate]
    basis2d = find_modes_2d(sys, n_eps)
    want = _loop_find_modes_2d(sys, n_eps)
    _assert_rows(basis2d.modes, want, PLATE_FIELDS)
    for name, field in (
        ("lambda_b", "nu_b"),
        ("lambda_a", "nu_a"),
        ("lambda_bar", "lambda_bar"),
        ("amp_b", "amp_b"),
        ("amp_a", "amp_a"),
    ):
        i = PLATE_FIELDS.index(field)
        assert _same_bits(getattr(basis2d, name), [row[i] for row in want]), name
    assert basis2d.lambda_bars() is basis2d.lambda_bar


def test_plate_order_breaks_decay_rate_ties_by_m_then_n():
    # unit materials on a square plate give several modes the same lambda_bar
    modes = find_modes_2d(PLATES["unit"], 60.0).modes
    keys = [(md.lambda_bar, md.m, md.n) for md in modes]
    assert keys == sorted(keys)
    assert len({md.lambda_bar for md in modes}) < len(modes)


# ---------------------------------------------------------------------------
# one basis type for rod and plate

PLATE_COLUMNS = (
    ("lambda_b", "nu_b"),
    ("lambda_a", "nu_a"),
    ("lambda_bar", "lambda_bar"),
    ("amp_b", "amp_b"),
    ("amp_a", "amp_a"),
    ("mu", "mu"),
)


@pytest.mark.parametrize("plate", sorted(PLATES))
def test_plate_and_slice_bases_are_eigen_bases_whose_records_match_their_columns(plate):
    sys = PLATES[plate]
    basis2d = find_modes_2d(sys, 250.0)
    for basis in (basis2d, slice_basis(basis2d, 0.3 * sys.c)):
        assert type(basis) is EigenBasis
        assert basis.modes.dtype.names == PLATE_FIELDS
        for name, field in PLATE_COLUMNS:
            assert _same_bits(getattr(basis, name), [getattr(md, field) for md in basis.modes]), name
        for name, field in (("m", "m"), ("n", "n"), ("degenerate", "degenerate_interface")):
            assert getattr(basis, name).tolist() == [getattr(md, field) for md in basis.modes]


def _count_modes_reads(monkeypatch):
    """Wrap ``EigenBasis.modes``; the list grows by one each time a basis computes it."""
    reads = []
    real = EigenBasis.modes.func
    spy = cached_property(lambda self: reads.append(1) or real(self))
    spy.__set_name__(EigenBasis, "modes")
    monkeypatch.setattr(EigenBasis, "modes", spy)
    return reads


@pytest.mark.parametrize("rod", sorted(RODS))
def test_a_rod_build_constructs_no_records_until_modes_is_read(rod, monkeypatch):
    reads = _count_modes_reads(monkeypatch)
    basis = build_basis(RODS[rod], 403)
    assert basis.norm_N.size == 403
    assert reads == []
    modes = basis.modes
    assert modes.dtype.names == tuple(f if isinstance(f, str) else f[0] for f in ROD_FIELDS)
    assert modes.shape == (403,)
    assert basis.modes is modes
    assert len(reads) == 1
    # a rod leaves the plate columns empty; its flags and indices are the rows'
    assert basis.m is basis.n is basis.mu is None
    assert basis.degenerate.tolist() == [m.degenerate_interface for m in modes]
    assert [m.pair.n for m in modes] == list(range(403))


@pytest.mark.parametrize("plate", sorted(PLATES))
def test_a_plate_and_its_slice_construct_no_records_until_modes_is_read(plate, monkeypatch):
    reads = _count_modes_reads(monkeypatch)
    sys = PLATES[plate]
    basis2d = find_modes_2d(sys, 250.0)
    on_slice = slice_basis(basis2d, 0.3 * sys.c)
    assert reads == []
    assert on_slice.modes.shape == (len(on_slice),)
    assert on_slice.modes is on_slice.modes
    assert len(reads) == 1
    _assert_rows(basis2d.modes, _loop_find_modes_2d(sys, 250.0), PLATE_FIELDS)
    assert len(reads) == 2


@pytest.mark.parametrize("rod", sorted(RODS))
def test_rod_norms_are_derived_from_the_columns_once_on_first_read(rod, monkeypatch):
    calls = []
    real = basis_module._mode_norms
    monkeypatch.setattr(basis_module, "_mode_norms", lambda *a: calls.append(1) or real(*a))
    sys = RODS[rod]
    basis = build_basis(sys, 403)
    assert "norm_N" not in {f.name for f in fields(EigenBasis)}
    assert calls == []
    # the Gram diagonal is pinned by test_norms_are_the_weighted_gram_diagonal
    assert _same_bits(basis.norm_N, [m.norm_N for m in basis.modes])
    assert basis.norm_N is basis.norm_N
    assert len(calls) == 1  # the records' norms are the column's


def test_plate_builds_no_norms_and_a_slice_derives_its_own(monkeypatch):
    calls = []
    real = basis_module._mode_norms
    monkeypatch.setattr(basis_module, "_mode_norms", lambda *a: calls.append(1) or real(*a))
    sys, y0 = PLATES["rect"], 0.3 * PLATES["rect"].c
    basis2d = find_modes_2d(sys, 250.0)
    assert calls == []
    plate_norms = basis2d.norm_N  # cached on the plate first: the slice must not inherit it
    y = np.array([y_mode(md.m, y0, sys.c) for md in basis2d.modes])
    want, _ = real(sys, basis2d.lambda_b, basis2d.lambda_a, basis2d.amp_b * y, basis2d.amp_a * y)
    slice_norms = slice_basis(basis2d, y0).norm_N
    assert _same_bits(slice_norms, want)
    assert not np.array_equal(slice_norms, plate_norms)


def test_plate_rule_is_sized_by_its_fastest_mode():
    # example 2d's plate: its columns are in lambda_bar order, so the last is not the fastest
    sys = PLATES["cu_mo"]
    basis = find_modes_2d(sys, 1000.0)
    assert basis.lambda_b[-1] < basis.lambda_b.max()
    for x, w, lam, length in (
        (basis.quad_x_b, basis.quad_w_b, basis.lambda_b, sys.b),
        (basis.quad_x_a, basis.quad_w_a, basis.lambda_a, sys.a),
    ):
        assert x.size >= PANEL_ORDER * math.ceil(lam.max() * length / PANEL_PHASE)
        assert math.isclose(w.sum(), length, rel_tol=1e-14)


@pytest.mark.parametrize("count", [1, 2, 51, 403])
@pytest.mark.parametrize("rod", sorted(RODS))
def test_rod_rule_is_the_one_its_last_column_sizes(rod, count):
    # rod columns ascend: the rule a rod builds is the one max(lambda[-1], 1) gives, bit for bit
    sys = RODS[rod]
    basis = build_basis(sys, count)
    xb, wb = _composite_rule(-sys.b, 0.0, max(float(basis.lambda_b[-1]), 1.0))
    xa, wa = _composite_rule(0.0, sys.a, max(float(basis.lambda_a[-1]), 1.0))
    got = (basis.quad_x_b, basis.quad_w_b, basis.quad_x_a, basis.quad_w_a)
    for have, want in zip(got, (xb, wb, xa, wa)):
        assert have.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the degenerate amplitudes against a per-mode SVD

A0 = 3.180151750330678  # a Cu/Mo rod with b = 5 and a = A0 has cos(lambda_a a) = 0 at mode 5
DEGENERATE_RODS = {
    "unit": (RODS["unit"], 2000),
    "stiff": (RODS["stiff"], 403),
    **{
        f"a0+{d:g}": (SlabSystem(b=5.0, a=A0 + d, mat_b=CU, mat_a=MO), 403)
        for d in (1e-9, 1e-7, 2e-6)
    },
}


def _interface_system(sys, lam_b, lam_a):
    """One mode's 2x2 interface system: the value row over the flux row."""
    return np.array(
        [
            [math.cos(lam_b * sys.b), -math.cos(lam_a * sys.a)],
            [
                sys.mat_b.K * lam_b * math.sin(lam_b * sys.b),
                sys.mat_a.K * lam_a * math.sin(lam_a * sys.a),
            ],
        ]
    )


def _svd_null_vector(A):
    """The last right singular vector of A, signed as ``_interface_amplitudes`` signs."""
    theta = np.linalg.svd(A)[2][-1]
    lead = theta[0] if abs(A[0, 0]) < DEGENERATE_COS_TOL else theta[1]
    return -theta if lead < 0 else theta


@pytest.mark.parametrize("rod", sorted(DEGENERATE_RODS))
def test_degenerate_amplitudes_match_the_per_mode_svd(rod):
    # at the rod's own roots: the amplitudes are within 1e-15 of the SVD's
    # unit null vector, and neither interface row leaves more than twice the
    # SVD's largest residual (the flux row's relative to its norm)
    sys, count = DEGENERATE_RODS[rod]
    basis = build_basis(sys, count)
    amp_b, amp_a, degenerate = _interface_amplitudes(sys, basis.lambda_b, basis.lambda_a)
    assert degenerate.any()
    modes = zip(basis.lambda_b[degenerate].tolist(), basis.lambda_a[degenerate].tolist())
    systems = np.array([_interface_system(sys, lb, la) for lb, la in modes])
    ours = np.stack([amp_b[degenerate], amp_a[degenerate]], axis=-1)
    svd = np.array([_svd_null_vector(A) for A in systems])
    assert np.max(np.abs(ours - svd)) <= 1e-15
    scale = np.stack(
        [np.ones(len(systems)), np.hypot(systems[:, 1, 0], systems[:, 1, 1])], axis=-1
    )

    def worst_residuals(theta):
        return (np.abs(np.einsum("mij,mj->mi", systems, theta)) / scale).max(axis=0)

    assert np.all(worst_residuals(ours) <= 2.0 * worst_residuals(svd))
