"""Eigenvalue computation for the two-slab Sturm-Liouville problem.

Separation of variables with insulated outer faces and perfect contact
at the interface reduces the spatial problem to one transcendental
equation in the left-slab frequency lambda_b:

    (K_b/sqrt(kappa_b)) sin(lambda_b b) cos(lambda_a a)
      + (K_a/sqrt(kappa_a)) sin(lambda_a a) cos(lambda_b b) = 0,

with lambda_a = sqrt(kappa_b/kappa_a) * lambda_b pinned by the shared
decay rate lambda_bar = kappa_b lambda_b^2 = kappa_a lambda_a^2.

Roots are indexed by a Pruefer-type phase.  Dividing the equation by
both cosines turns it into

    lambda b + h(r lambda a) = n pi,   h(psi) = k pi + atan(rho tan(psi - k pi)),

with r = sqrt(kappa_b/kappa_a), rho = (K_a/sqrt(kappa_a)) / (K_b/sqrt(kappa_b))
and k = round(psi/pi).  The left-hand side is continuous, strictly
increasing and within pi/2 of lambda (b + r a), so root n is the only
one in the closed-form bracket (n -+ 1/2) pi / (b + r a).  All brackets
are bisected at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, SlabSystem, ValidationError

# Grid values this close to zero are treated as exact roots, and local
# minima of |f| below it are flagged as tangency (double) roots.
TANGENCY_TOL = 1e-12


def eigen_f(lambda_b, sys: SlabSystem):
    """Transcendental eigenvalue function; vectorized over lambda_b."""
    lam_b = np.asarray(lambda_b, dtype=float)
    lam_a = sys.kappa_ratio_root() * lam_b
    cb = sys.mat_b.K / math.sqrt(sys.mat_b.kappa)
    ca = sys.mat_a.K / math.sqrt(sys.mat_a.kappa)
    out = cb * np.sin(lam_b * sys.b) * np.cos(lam_a * sys.a) + ca * np.sin(
        lam_a * sys.a
    ) * np.cos(lam_b * sys.b)
    if np.isscalar(lambda_b):
        return float(out)
    return out


def eigen_phase(lambda_b, sys: SlabSystem) -> np.ndarray:
    """Interface phase lambda_b b + h(lambda_a a); strictly increasing, vectorized.

    Root n of ``eigen_f`` is where the phase equals n pi.
    """
    lam_b = np.asarray(lambda_b, dtype=float)
    rho = (sys.mat_a.K / math.sqrt(sys.mat_a.kappa)) / (sys.mat_b.K / math.sqrt(sys.mat_b.kappa))
    psi = sys.kappa_ratio_root() * lam_b * sys.a
    k_pi = np.rint(psi / math.pi) * math.pi
    return lam_b * sys.b + k_pi + np.arctan(rho * np.tan(psi - k_pi))


@dataclass(frozen=True)
class EigenValuePair:
    """One eigen-element's frequencies and decay rate, index n >= 0."""

    n: int
    lambda_b: float
    lambda_a: float
    lambda_bar: float


def _bisect_brackets(f, lo, hi, sign_lo, tol: float) -> np.ndarray:
    """One root of f in each bracket [lo_i, hi_i], all bisected together.

    ``f`` maps an array of abscissae to values, element i belonging to
    bracket i; ``sign_lo`` is the sign of f at the lower ends.  Each
    bracket is halved until its width is <= tol, f vanishes exactly at a
    midpoint, or no double lies strictly inside; the midpoint of what
    remains is returned.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    slo = np.broadcast_to(sign_lo, lo.shape).astype(float)
    active = hi - lo > tol
    while np.any(active):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        hit = active & (fm == 0.0)
        lower = active & ~hit & (slo * fm < 0.0)
        upper = active & ~hit & ~lower
        stalled = (mid == lo) | (mid == hi)
        hi = np.where(lower | hit, mid, hi)
        lo = np.where(upper | hit, mid, lo)
        slo = np.where(upper, np.sign(fm), slo)
        active &= ~hit & ~stalled & (hi - lo > tol)
    return 0.5 * (lo + hi)


def scan_roots(
    f,
    lo: float,
    hi: float,
    scan_step: float,
    refine_tol: float,
    max_roots: int | None = None,
) -> list[float]:
    """Roots of f on [lo, hi] by uniform scan + bisection, ascending.

    f must be vectorized.  Grid points where f vanishes to TANGENCY_TOL
    are accepted directly, which also catches tangency (no-sign-change)
    roots as local minima of |f|; everything else needs a sign change
    between neighbouring grid points.  A grid hit within half a step of
    the previous root repeats it and is dropped.
    """
    n_steps = int(math.ceil((hi - lo) / scan_step))
    if n_steps < 1:
        return []
    xs = lo + scan_step * np.arange(n_steps + 1)
    xs[-1] = min(xs[-1], hi)
    fs = np.asarray(f(xs), dtype=float)

    zeroish = np.abs(fs) <= TANGENCY_TOL
    hits = np.flatnonzero(zeroish)
    changes = np.flatnonzero(~zeroish[:-1] & ~zeroish[1:] & (fs[:-1] * fs[1:] < 0.0))
    refined = _bisect_brackets(f, xs[changes], xs[changes + 1], np.sign(fs[changes]), refine_tol)
    # a hit at node i comes before a sign change inside (x_i, x_i+1)
    order = np.argsort(np.concatenate((2 * hits, 2 * changes + 1)))
    roots = np.concatenate((xs[hits], refined))[order]
    is_hit = np.concatenate((np.ones(len(hits), bool), np.zeros(len(changes), bool)))[order]
    keep = ~is_hit | (np.diff(roots, prepend=-np.inf) > scan_step / 2)
    return roots[keep][:max_roots].tolist()


def find_eigenvalues(sys: SlabSystem, N: int) -> list[EigenValuePair]:
    """Smallest N+1 non-negative eigen frequencies, ascending.

    Index 0 is always lambda_b = 0 (the constant mode).  Root n >= 1 is
    bisected on the phase ``eigen_phase - n pi`` inside its own bracket
    (n -+ 1/2) pi / (b + r a) until the bracket ends are adjacent doubles.
    """
    if N < 0:
        raise NumericalError("N must be non-negative")
    ratio = sys.kappa_ratio_root()
    n = np.arange(1, N + 1)
    width = math.pi / (sys.b + ratio * sys.a)
    # bracket ends (n - 1/2) width for n = 1..N+1; a geometry too large or
    # too small for doubles collapses or overflows them
    with np.errstate(over="ignore"):
        ends = (np.arange(N + 1) + 0.5) * width
    if not (np.all(np.isfinite(ends)) and ends[0] > 0.0 and np.all(np.diff(ends) > 0.0)):
        raise ValidationError(
            f"b + r a = {sys.b + ratio * sys.a!r}: the root brackets of {N} modes "
            "are not distinct positive finite doubles"
        )
    # the phase increases, so it is negative at every lower bracket end
    phase = lambda lam: eigen_phase(lam, sys) - n * math.pi
    roots = _bisect_brackets(phase, ends[:-1], ends[1:], -1.0, 0.0)
    pairs = [EigenValuePair(0, 0.0, 0.0, 0.0)]
    for k, lam_b in enumerate(roots.tolist(), start=1):
        pairs.append(EigenValuePair(k, lam_b, ratio * lam_b, sys.mat_b.kappa * lam_b**2))
    return pairs
