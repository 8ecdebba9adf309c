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

    lambda b + h(r lambda a) = n pi,   h(psi) = psi + atan((rho - 1) t / (1 + rho t^2)),

with t = tan psi, r = sqrt(kappa_b/kappa_a) and rho = (K_a/sqrt(kappa_a)) /
(K_b/sqrt(kappa_b)): h is the continuous branch of atan(rho tan psi), with
no branch index and no pole.  The left-hand side is continuous, strictly
increasing and within pi/2 of lambda (b + r a), so root n is the only
one in the closed-form bracket (n -+ 1/2) pi / (b + r a).  All brackets
are bisected at once.  The lower bracket ends also bound the index of the
last mode a cut-off keeps, so a cut-off's basis is sized from N_eps
alone (``cutoff_mode_count``).

The plate's transverse index m shifts the right layer's frequency; the
same phase with that shift indexes its roots (``eigen_phase``), and rod
and plate share one bisection core (``_phase_roots``), which takes every
phase below its target at the lower end and stops at adjacent doubles.
lambda_a and lambda_bar of all roots are then two array expressions, and
``find_eigenvalues`` returns them, with the index n, as the fields of one
record array.  Squares go through ``np.float_power(x, 2.0)``, which
rounds as Python's ``x**2`` does (numpy's ``x**2`` is ``x*x`` and can
differ in the last bit).
"""

from __future__ import annotations

import math

import numpy as np

from .core import NumericalError, SlabSystem, ValidationError

# Most modes a rod (find_eigenvalues) or plate (bilayer2d.find_modes_2d)
# spectrum may hold; larger requests are refused before anything is
# allocated, so the modes and their brackets stay within tens of MB.
MAX_MODES = 100_000


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
        t = np.tan(psi)
        rs = rho * s
        return nu * sys.b + psi + np.arctan2((rs - nu) * t, nu + rs * t * t)

    return phase


def eigen_phase(nu_b, sys: SlabSystem, mu=0.0) -> np.ndarray:
    """Interface phase nu_b b + h; vectorized over nu_b and mu.

    With s = sqrt(max(nu_b^2 + (1 - kappa_a/kappa_b) mu^2, 0)), the right
    layer's angle psi = r s a and t = tan psi, the module docstring's h with
    the flux ratio rho0 s/nu_b for rho, times nu_b >= 0 above and below, is

        h = psi + arctan2((rho0 s - nu_b) t, nu_b + rho0 s t^2).

    Its second argument is positive except at nu_b = 0 with s t = 0, where
    arctan2(0, 0) = 0 is the limit.  Root n of the determinant (the module
    docstring's at mu = 0, the plate's at mu) is where the phase equals n pi.  With a
    shift the phase need not increase, but phase - n pi has the sign of the
    increasing Pruefer angle at a fixed scale (rescaling an angle fixes the
    multiples of pi/2), so it changes sign once, at root n.
    """
    return _phase(sys, mu)(nu_b)


def _root_records(lam_b, lam_a, lam_bar) -> np.recarray:
    """Rows (n, lambda_b, lambda_a, lambda_bar) of the given columns, n counting from 0."""
    return np.rec.fromarrays(
        (np.arange(len(lam_b)), lam_b, lam_a, lam_bar), names="n,lambda_b,lambda_a,lambda_bar"
    )


def _bisect_brackets(f, lo, hi) -> np.ndarray:
    """One root of f in each bracket [lo_i, hi_i], all bisected together.

    ``f`` maps an array of abscissae to values, element i belonging to
    bracket i, and must be negative at every lower end.  Each bracket is
    halved until f vanishes exactly at a midpoint or no double lies
    strictly inside; the midpoint of what remains is returned.  A NaN
    value moves the lower end up.  Halving leaves a finished bracket's
    midpoint where it is, so all are halved, in place, until none is
    open, which is tested once per four halvings.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        for _ in range(4):
            fm = f(mid)
            # an exact zero moves both ends onto it, which closes the bracket
            np.copyto(hi, mid, where=fm >= 0.0)
            np.copyto(lo, mid, where=~(fm > 0.0))
            np.add(lo, hi, out=mid)
            mid *= 0.5
    return mid


def _phase_roots(sys: SlabSystem, lo, hi, target, mu=0.0) -> np.ndarray:
    """Where ``eigen_phase(., sys, mu)`` meets each target in [lo, hi], bisected together.

    The phase must be below its target at lo and not below it at hi.
    lo, hi, target and mu broadcast elementwise, one element per root.
    """
    phase = _phase(sys, mu)
    return _bisect_brackets(lambda v: phase(v) - target, lo, hi)


def find_eigenvalues(sys: SlabSystem, N: int) -> np.recarray:
    """Smallest N+1 non-negative eigen frequencies, ascending.

    They are returned as a record array with fields n, lambda_b, lambda_a
    and lambda_bar.  Index 0 is always lambda_b = 0 (the constant mode).
    Root n >= 1 is bisected on the phase ``eigen_phase - n pi`` inside its
    own bracket (n -+ 1/2) pi / (b + r a) until the bracket ends are
    adjacent doubles.  More than MAX_MODES modes are refused before
    anything is allocated.
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
    return _root_records(lam_b, lam_a, lam_bar)


def cutoff_mode_count(sys: SlabSystem, n_eps: float) -> int:
    """Modes a rod basis needs to hold every mode with lambda_bar <= n_eps, plus at least one.

    Root n >= 1 lies above its bracket's lower end (n - 1/2) pi / (b + r a),
    so with nu = sqrt(n_eps / kappa_b) no retained root has an index above
    nu (b + r a) / pi + 1/2; the count adds mode 0 and one more.  An n_eps
    that is not finite, or a count past MAX_MODES, is refused before
    anything is allocated.
    """
    top = math.sqrt(n_eps / sys.mat_b.kappa) * (sys.b + sys.kappa_ratio_root() * sys.a) / math.pi
    if not top + 0.5 < MAX_MODES - 1:
        raise ValidationError(
            f"N_eps = {n_eps!r} admits about {top:.3g} rod modes; at most {MAX_MODES} are supported"
        )
    return math.floor(top + 0.5) + 2
