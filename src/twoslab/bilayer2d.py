"""Two-dimensional bilayer plate: eigen-modes and slice reconstruction.

The plate is [-b, 0] x [0, c] joined to [0, a] x [0, c], insulated on
all outer faces.  Separation in y gives cosine factors with wavenumber
mu_m = m*pi/c shared by both layers, so the x-problem couples layer
frequencies through

    nu_a^2 = (kappa_b/kappa_a) nu_b^2 + (kappa_b/kappa_a - 1) mu^2,

and the interface determinant becomes

    K_b nu_b sin(nu_b b) cos(nu_a a) + K_a nu_a sin(nu_a a) cos(nu_b b) = 0.

A negative radicand above means the requested branch is evanescent in
the right layer, which the formulation excludes.  Decay rates are
lambda_bar = kappa_b (nu_b^2 + mu^2) = kappa_a (nu_a^2 + mu^2).

The roots in nu_b are indexed per transverse index m by the slab's
interface phase with the shift mu (``eigensolver.eigen_phase``): each
multiple of pi the phase crosses on [nu_lo, nu_hi] is one mode, so the
modes are counted in closed form and the roots of every m are bisected
together in one call, with no grid.  nu_a, lambda_bar and the amplitudes
(the array core of ``basis``) of all modes are then array expressions,
and ``np.lexsort`` puts them in (lambda_bar, m, n) order.  A solved
spectrum is kept, keyed by the whole system and N_eps, with read-only
columns, and returned again for an equal request; the kept spectra hold
at most MAX_MODES modes in all, the oldest going first.  The plate's
modes are a ``basis.EigenBasis``, as a rod's are: nu_b and nu_a are its
``lambda_b`` and ``lambda_a`` columns, m, n and mu are three more, and
its ``modes`` record array is built from the columns when first read.

Backward reconstruction works on a fixed-y slice: on y = y0 each mode is
its x-factor times the constant Y_m(y0), so ``slice_basis`` folds Y_m(y0),
evaluated once per transverse index, into the amplitude columns, and the
slice runs on the rod's path (the mode matrices, recovery and synthesis
of ``spectral``).  With |Theta(eps)| retained modes it is collocated on
exactly that many nodes per layer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import numpy as np

from .core import RegParams, SampledField, SlabSystem, ValidationError, _frozen
from .basis import EigenBasis, _interface_amplitudes
from .eigensolver import MAX_MODES, _phase_roots, eigen_phase
from .evolve import _reconstruct
from .spectral import recover_coefficients


class EvanescentBranchError(ValidationError):
    """nu_b too small for the requested mu: right-layer mode not oscillatory."""


def _require_c(sys: SlabSystem) -> float:
    if sys.c is None:
        raise ValidationError("2D routines need a system with transverse depth c")
    return sys.c


def nu_a_of(nu_b, mu, sys: SlabSystem):
    """Right-layer frequency paired with nu_b at transverse wavenumber mu.

    mu is a scalar or an array broadcasting against nu_b.
    """
    ratio = sys.mat_b.kappa / sys.mat_a.kappa
    radicand = ratio * np.asarray(nu_b, dtype=float) ** 2 + (ratio - 1.0) * mu**2
    # tolerate rounding dust at the oscillatory threshold itself
    if np.any(radicand < -1e-12 * np.maximum(1.0, mu * mu)):
        raise EvanescentBranchError(
            f"negative radicand at mu = {mu!r}: evanescent branch requested"
        )
    out = np.sqrt(np.maximum(radicand, 0.0))
    if np.isscalar(nu_b):
        return float(out)
    return out


def y_mode(m: int, y, c: float):
    """Transverse factor, orthonormal on [0, c] (constant mode rescaled)."""
    ys = np.asarray(y, dtype=float)
    if m == 0:
        out = np.full_like(ys, math.sqrt(1.0 / c))
    else:
        out = math.sqrt(2.0 / c) * np.cos(m * math.pi * ys / c)
    if np.isscalar(y):
        return float(out)
    return out


class _SolvedPlates:
    """The spectra ``find_modes_2d`` has solved, oldest first, at most MAX_MODES modes in all."""

    def __init__(self) -> None:
        self.plates: dict[tuple[SlabSystem, float], EigenBasis] = {}
        self.modes = 0
        self.lock = threading.Lock()

    def add(self, key: tuple[SlabSystem, float], plate: EigenBasis) -> EigenBasis:
        """Keep plate under key, unless another caller kept one first; return the kept one."""
        with self.lock:
            if key not in self.plates:
                self.plates[key] = plate
                self.modes += len(plate)
                while self.modes > MAX_MODES:
                    self.modes -= len(self.plates.pop(next(iter(self.plates))))
            return self.plates.get(key, plate)

    def clear(self) -> None:
        with self.lock:
            self.plates.clear()
            self.modes = 0


_solved = _SolvedPlates()


def find_modes_2d(sys: SlabSystem, n_eps: float) -> EigenBasis:
    """All modes with lambda_bar <= n_eps, sorted by (lambda_bar, m, n), as an ``EigenBasis``.

    Its columns are nu_b, nu_a, lambda_bar, the amplitudes and the
    degenerate flags, plus the transverse index m, the index n within m
    and mu; its ``modes`` record array is built from them when first read.

    Each admissible transverse index m has the oscillatory branch
    [nu_lo, nu_hi], with nu_hi closed-form since lambda_bar <= n_eps
    bounds nu_b directly.  Its modes are the roots of
    ``eigen_phase(., sys, mu) = k pi`` for every integer k with
    phase(nu_lo) <= k pi <= phase(nu_hi), numbered n = 0, 1, ... within
    m.  A target the phase meets at nu_lo (the constant mode) is that
    end; the others of every m are bisected together in one call, each
    with its own mu and target.  Plates whose closed-form mode count
    exceeds MAX_MODES are refused before anything is allocated.

    A solved spectrum is kept, keyed by the whole system and
    float(n_eps), and an equal request returns the same basis: its
    columns are read-only, as it is shared.  The kept spectra hold at
    most MAX_MODES modes in all, and the oldest goes first.
    """
    c = _require_c(sys)
    if not n_eps >= 0:
        raise ValidationError("n_eps must be non-negative")
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    # phase(nu) <= nu (b + r a) + pi for every m, and nu_hi <= nu_max
    nu_max = math.sqrt(n_eps / kb)
    bound = (nu_max * c / math.pi + 1.0) * (
        nu_max * (sys.b + sys.kappa_ratio_root() * sys.a) / math.pi + 2.0
    )
    if not bound <= MAX_MODES:
        raise ValidationError(
            f"n_eps = {n_eps!r} admits up to {bound:.3g} plate modes; "
            f"at most {MAX_MODES} are supported"
        )
    key = (sys, float(n_eps))
    plate = _solved.plates.get(key)
    if plate is not None:
        return plate
    ms = np.arange(int(nu_max * c / math.pi) + 2)
    mu = ms * math.pi / c
    nu_hi = np.sqrt(np.maximum(n_eps / kb - mu**2, 0.0))
    # right layer oscillatory only from this frequency up
    nu_lo = mu * math.sqrt(max(0.0, ka / kb - 1.0))
    keep = (kb * mu**2 <= n_eps) & (nu_hi >= nu_lo)
    ms, mu, nu_lo, nu_hi = ms[keep], mu[keep], nu_lo[keep], nu_hi[keep]
    at_lo, at_hi = eigen_phase(nu_lo, sys, mu), eigen_phase(nu_hi, sys, mu)
    # targets k pi from the first at or above phase(nu_lo) to the last at or below phase(nu_hi)
    first, last = np.ceil(at_lo / math.pi), np.floor(at_hi / math.pi)
    counts = np.maximum(last - first + 1.0, 0.0).astype(int)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    n = np.arange(counts.sum()) - starts
    target = (np.repeat(first, counts) + n) * math.pi
    m_of, mu_of = np.repeat(ms, counts), np.repeat(mu, counts)
    roots = np.repeat(nu_lo, counts)
    todo = np.repeat(at_lo, counts) != target
    roots[todo] = _phase_roots(
        sys, roots[todo], np.repeat(nu_hi, counts)[todo], target[todo], mu_of[todo]
    )
    nu_a = nu_a_of(roots, mu_of, sys)
    lam_bar = kb * (np.float_power(roots, 2.0) + np.float_power(mu_of, 2.0))
    amp_b, amp_a, degenerate = _interface_amplitudes(sys, roots, nu_a)
    # the columns in (lambda_bar, m, n) order
    order = np.lexsort((n, m_of, lam_bar))
    columns = (roots, nu_a, lam_bar, amp_b, amp_a, degenerate, m_of, n, mu_of)
    return _solved.add(key, EigenBasis(sys, *(_frozen(col[order]) for col in columns)))


def slice_basis(basis2d: EigenBasis, y0: float) -> EigenBasis:
    """The modes on y = y0: amplitudes times Y_m(y0), one Y per transverse index."""
    c = _require_c(basis2d.sys)
    y = np.array([y_mode(m, y0, c) for m in range(basis2d.m.max(initial=-1) + 1)])[basis2d.m]
    return replace(basis2d, amp_b=basis2d.amp_b * y, amp_a=basis2d.amp_a * y)


def _validate_slice(basis2d: EigenBasis, field: SampledField) -> None:
    count = len(basis2d)
    for slab, nodes in (("b", field.grid.nodes_b), ("a", field.grid.nodes_a)):
        if len(nodes) != count:
            raise ValidationError(
                f"layer {slab}: slice solve needs exactly {count} nodes, got {len(nodes)}"
            )


def recover_slice_coefficients(
    basis2d: EigenBasis, field: SampledField, y0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Square per-layer solves of the slice collocation systems."""
    _validate_slice(basis2d, field)
    coeffs = recover_coefficients(slice_basis(basis2d, y0), field, len(basis2d), "least-squares")
    return coeffs.c_b, coeffs.c_a


def reconstruct_2d_slice(
    sys: SlabSystem,
    measured_tf: SampledField,
    reg: RegParams,
    y0: float,
    t: float,
) -> SampledField:
    """Cut-off reconstruction of the y0-slice at time t from final data.

    The measurement grid must carry exactly |Theta(eps)| nodes per layer
    (see ``uniform_grid``); the series of every mode ``find_modes_2d`` returns
    is amplified on that grid, from the same mode matrices the solves use.
    A caller has solved that spectrum to size its grid, so this call reads
    the one ``find_modes_2d`` kept (keyed by the whole system and
    reg.n_eps, at most MAX_MODES modes in all): the plate is shared and
    its columns are read-only, and the slice takes its own amplitudes.
    """
    c = _require_c(sys)
    if not (0.0 <= y0 <= c):
        raise ValidationError("y0 must lie in [0, c]")
    basis2d = find_modes_2d(sys, reg.n_eps)
    _validate_slice(basis2d, measured_tf)
    return _reconstruct(slice_basis(basis2d, y0), measured_tf, len(basis2d), t, "least-squares")
