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

The plate's transverse index m shifts the right layer's frequency; the
same phase with that shift indexes its roots (``eigen_phase``), and rod
and plate share one bisection core (``_phase_roots``), which takes every
phase below its target at the lower end and stops at adjacent doubles.
lambda_a and lambda_bar of all roots are then two array expressions, and
the records are built in one pass over their columns.  Squares go through
``np.float_power(x, 2.0)``, which rounds as Python's ``x**2`` does
(numpy's ``x**2`` is ``x*x`` and can differ in the last bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, SlabSystem, ValidationError

_DBL_MAX = np.finfo(float).max

# Most modes a rod (find_eigenvalues) or plate (bilayer2d.find_modes_2d)
# spectrum may hold; larger requests are refused before anything is
# allocated, so the modes and their brackets stay within tens of MB.
MAX_MODES = 100_000


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


def _phase(sys: SlabSystem, mu=0.0):
    """``eigen_phase(., sys, mu)`` with its constants taken once, for bisection."""
    rho = (sys.mat_a.K / math.sqrt(sys.mat_a.kappa)) / (sys.mat_b.K / math.sqrt(sys.mat_b.kappa))
    ratio = sys.kappa_ratio_root()
    shift = (1.0 - sys.mat_a.kappa / sys.mat_b.kappa) * np.square(mu)
    shifted = bool(np.any(shift))

    def phase(nu_b):
        nu = np.asarray(nu_b, dtype=float)
        s = np.sqrt(np.maximum(nu * nu + shift, 0.0)) if shifted else nu
        psi = ratio * s * sys.a
        k_pi = np.rint(psi / math.pi) * math.pi
        turn = rho * np.tan(psi - k_pi)
        if shifted:
            # times s/nu_b, exactly 1 where there is no shift; as nu_b -> 0 with
            # s > 0 it is infinite, and DBL_MAX stands in so that a zero turn stays 0
            limit = np.where(s > 0.0, _DBL_MAX, 1.0)
            with np.errstate(over="ignore"):
                turn = turn * np.divide(s, nu, out=limit, where=nu > 0.0)
        return nu * sys.b + k_pi + np.arctan(turn)

    return phase


def eigen_phase(nu_b, sys: SlabSystem, mu=0.0) -> np.ndarray:
    """Interface phase nu_b b + h(psi); vectorized over nu_b and mu.

    With s = sqrt(max(nu_b^2 + (1 - kappa_a/kappa_b) mu^2, 0)) the right
    layer's angle is psi = r s a and its flux ratio rho0 s/nu_b, so

        h = k pi + atan(rho0 (s/nu_b) tan(psi - k pi)),   k = round(psi/pi).

    At mu = 0, s = nu_b and this is the slab phase of the module docstring.
    Root n of the determinant (``eigen_f`` at mu = 0, the plate's at mu)
    is where the phase equals n pi; at nu_b = 0 with s > 0 the phase takes
    its limit, s/nu_b being infinite.  With a shift the phase need not
    increase, but phase - n pi has the sign of the increasing Pruefer angle
    at a fixed scale (rescaling an angle fixes the multiples of pi/2), so
    it changes sign once, at root n.
    """
    return _phase(sys, mu)(nu_b)


@dataclass(frozen=True)
class EigenValuePair:
    """One eigen-element's frequencies and decay rate, index n >= 0."""

    n: int
    lambda_b: float
    lambda_a: float
    lambda_bar: float


def _bisect_brackets(f, lo, hi) -> np.ndarray:
    """One root of f in each bracket [lo_i, hi_i], all bisected together.

    ``f`` maps an array of abscissae to values, element i belonging to
    bracket i, and must be negative at every lower end.  Each bracket is
    halved until f vanishes exactly at a midpoint or no double lies
    strictly inside; the midpoint of what remains is returned.  A NaN
    value moves the lower end up.  Halving leaves a finished bracket's
    midpoint where it is, so all are halved until none is open.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            return mid
        fm = f(mid)
        # an exact zero moves both ends onto it, which closes the bracket
        hi = np.where(fm >= 0.0, mid, hi)
        lo = np.where(fm > 0.0, lo, mid)


def _phase_roots(sys: SlabSystem, lo, hi, target, mu=0.0) -> np.ndarray:
    """Where ``eigen_phase(., sys, mu)`` meets each target in [lo, hi], bisected together.

    The phase must be below its target at lo and not below it at hi.
    lo, hi, target and mu broadcast elementwise, one element per root.
    """
    phase = _phase(sys, mu)
    return _bisect_brackets(lambda v: phase(v) - target, lo, hi)


def find_eigenvalues(sys: SlabSystem, N: int) -> list[EigenValuePair]:
    """Smallest N+1 non-negative eigen frequencies, ascending.

    Index 0 is always lambda_b = 0 (the constant mode).  Root n >= 1 is
    bisected on the phase ``eigen_phase - n pi`` inside its own bracket
    (n -+ 1/2) pi / (b + r a) until the bracket ends are adjacent doubles.
    More than MAX_MODES modes are refused before anything is allocated.
    """
    if N < 0:
        raise NumericalError("N must be non-negative")
    if N >= MAX_MODES:
        raise ValidationError(f"{N + 1} modes requested; at most {MAX_MODES} are supported")
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
    # the phase increases, so it is below n pi at every lower bracket end
    lam_b = np.concatenate(([0.0], _phase_roots(sys, ends[:-1], ends[1:], n * math.pi)))
    lam_a = ratio * lam_b
    lam_bar = sys.mat_b.kappa * np.float_power(lam_b, 2.0)
    return list(
        map(EigenValuePair, range(N + 1), lam_b.tolist(), lam_a.tolist(), lam_bar.tolist())
    )
