"""Forward evolution and regularized backward reconstruction.

The backward problem amplifies mode n by exp(lambda_bar_n (tf - t)), so
unfiltered recovery from noisy final data explodes.  The cut-off rule
keeps only modes with lambda_bar_n <= N_eps where

    N_eps = beta * ln(eps^-gamma) / tf,

which caps the amplification of every retained mode at eps^{-beta gamma}
over the full window.  A forward solve and a cut-off reconstruction are
``recover_coefficients`` then ``synthesize``; on one grid the two share
each slab's mode matrix (``basis.mode_operator``).  The three bound
checkers evaluate both sides of the growth/stability estimates
numerically; the series norms come from the closed-form slab Gram
matrices, so neither side carries quadrature error.  A side that
overflows is refused (``NumericalError``), with no numpy warning first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AmplificationOverflowError,
    Grid,
    NumericalError,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    trapezoid_norm,
)
from .basis import EigenBasis, slab_grams
from .spectral import (
    CoeffVector,
    _mode_matrices,
    _quadrature_inner,
    _require_amplifiable,
    _series_field,
    amplification_factors,
    project_coefficients,
    recover_coefficients,
    synthesize,
)

# Relative round-off by which a measured perturbation may exceed its noise budget.
NOISE_BUDGET_RTOL = 1e-9


def retained_modes(basis: EigenBasis, n_eps: float) -> int:
    """Count of modes with lambda_bar_n <= n_eps (inclusive at the boundary).

    Decay rates are ascending, so the retained modes are the first this many.
    """
    return int(np.count_nonzero(basis.lambda_bars() <= n_eps))


def forward_solve(
    basis: EigenBasis,
    initial: SampledField,
    grid: Grid,
    mode_count: int,
    policy: str = "least-squares",
) -> SampledField:
    """Evolve the sampled field ``initial`` at t0 to the final time tf on ``grid``.

    Coefficients are recovered from the samples by ``policy``, decayed by
    exp(-lambda_bar_n (tf - t0)) and synthesized on ``grid``, which may
    differ from the grid of ``initial``.
    """
    s = basis.sys
    c0 = recover_coefficients(basis, initial, mode_count, policy)
    decay = np.exp(-basis.lambda_bar[:mode_count] * s.window)
    c_tf = CoeffVector(basis=basis, c_b=c0.c_b * decay, c_a=c0.c_a * decay)
    # coefficients are now "at tf", so synthesis at t = tf applies no growth
    return synthesize(basis, c_tf, s.tf, grid)


def cutoff_reconstruct(
    basis: EigenBasis,
    measured_tf: SampledField,
    reg: RegParams,
    t: float,
    policy: str = "least-squares",
) -> SampledField:
    """Regularized backward solution at time t from final-time data.

    Only the admissible modes are recovered (the cut-off projection);
    they are then amplified by exp(lambda_bar_n (tf - t)) and evaluated
    on the measurement grid.  ``basis`` must hold every mode the cut-off
    keeps plus one, as a basis of ``eigensolver.cutoff_mode_count(sys,
    reg.n_eps)`` modes does: a basis the cut-off keeps whole may be
    missing admissible modes.
    """
    return _reconstruct(basis, measured_tf, retained_modes(basis, reg.n_eps), t, policy)


def _reconstruct(
    basis: EigenBasis, measured_tf: SampledField, count: int, t: float, policy: str
) -> SampledField:
    """The first ``count`` modes recovered from ``measured_tf``, amplified to t on its grid."""
    s = basis.sys
    if not (s.t0 <= t <= s.tf):
        raise ValidationError("t must lie in [t0, tf]")
    if count == 0:
        raise ValidationError("cut-off removed every mode; nothing to reconstruct")
    # the guard before the recovery: an exponent past the limit is refused whatever the grid
    _require_amplifiable(basis, count, t)
    coeffs = recover_coefficients(basis, measured_tf, count, policy)
    return synthesize(basis, coeffs, t, measured_tf.grid)


def _amplified_norm_sq(basis: EigenBasis, coeffs: CoeffVector, t: float) -> tuple[np.ndarray, float]:
    """exp(lambda_bar_n (tf-t)) and the squared L2(-b,a) norm of the series at time t."""
    count = len(coeffs)
    amp = amplification_factors(basis, count, t)
    Gb, Ga = slab_grams(basis, count)
    c_b, c_a = coeffs.c_b * amp, coeffs.c_a * amp
    return amp, float(c_b @ Gb @ c_b) + float(c_a @ Ga @ c_a)


def _cutoff_norm_sq(basis: EigenBasis, field: SampledField, reg: RegParams, t: float) -> float:
    """Squared norm at t of the cut-off series of ``field``'s weighted projection.

    Projected, not fitted per slab: per-slab least squares can return
    gauge-wild coefficients that the estimates say nothing about.
    """
    k = retained_modes(basis, reg.n_eps)
    return _amplified_norm_sq(basis, project_coefficients(basis, field, k), t)[1]


# the largest argument math.exp maps to a finite double
_EXP_ARG_MAX = math.log(np.finfo(float).max)


def _cutoff_gain(s: SlabSystem, reg: RegParams, t: float) -> float:
    """min{w_b, w_a, 1}^-1 * N_eps * exp(2 N_eps (tf-t)), the gain of the cut-off series."""
    arg = 2.0 * reg.n_eps * (s.tf - t)
    if arg > _EXP_ARG_MAX:
        raise AmplificationOverflowError(
            f"cut-off gain overflow: 2 N_eps (tf-t) = {arg:.3f} exceeds {_EXP_ARG_MAX:.3f}"
        )
    return 1.0 / min(*s.weights, 1.0) * reg.n_eps * math.exp(arg)


def _finite_sides(checker):
    """``checker``, evaluated with no numpy warning, refusing a side that is not finite."""

    @functools.wraps(checker)
    def checked(*args, **kwargs) -> tuple[float, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs = checker(*args, **kwargs)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise NumericalError(f"{checker.__name__}: non-finite side (lhs {lhs!r}, rhs {rhs!r})")
        return lhs, rhs

    return checked


@_finite_sides
def instability_lower_bound(
    basis: EigenBasis, coeffs: CoeffVector, t: float
) -> tuple[float, float]:
    """Both sides of the backward-growth lower bound.

    lhs: squared L2(-b,a) norm of the series at time t (closed-form Grams).
    rhs: max{K_b/kappa_b, K_a/kappa_a, 1}^-1 *
         sum_n min(C_bn^2, C_an^2) exp(2 lambda_bar_n (tf-t)) N_n.
    The theorem asserts lhs >= rhs: amplified modes force growth.
    """
    amp, lhs = _amplified_norm_sq(basis, coeffs, t)
    wmax = max(*basis.sys.weights, 1.0)
    N = basis.norm_N[: len(coeffs)]
    rhs = float(np.sum(np.minimum(coeffs.c_b**2, coeffs.c_a**2) * amp**2 * N) / wmax)
    return lhs, rhs


@_finite_sides
def stability_bound(
    basis: EigenBasis,
    final_field: SampledField,
    reg: RegParams,
    t: float,
) -> tuple[float, float]:
    """Both sides of the cut-off stability estimate.

    lhs: squared L2 norm at time t of the cut-off reconstruction from the
         projected admissible coefficients of the final data.
    rhs: min{K_b/kappa_b, K_a/kappa_a, 1}^-1 * N_eps * exp(2 N_eps (tf-t))
         * [w_b ||T_b(tf)||^2 + w_a ||T_a(tf)||^2].
    The theorem asserts lhs <= rhs.
    """
    lhs = _cutoff_norm_sq(basis, final_field, reg, t)
    w_b, w_a = basis.sys.weights
    db, da = trapezoid_norm(final_field)
    return lhs, _cutoff_gain(basis.sys, reg, t) * (w_b * db**2 + w_a * da**2)


@_finite_sides
def noise_gap_bound(
    basis: EigenBasis,
    clean_tf: SampledField,
    noisy_tf: SampledField,
    reg: RegParams,
    t: float,
) -> tuple[float, float]:
    """Both sides of the clean-vs-noisy reconstruction gap estimate.

    Requires both fields on the same grid with the perturbation inside
    the terminal noise budget eps.  The gap series uses the projected
    coefficients of the difference field on the admissible set.  The
    theorem asserts lhs <= rhs with
    rhs = min{w_b, w_a, 1}^-1 * N_eps * exp(2 N_eps (tf-t))
          * (w_b + w_a) * eps^2.
    """
    if clean_tf.grid is not noisy_tf.grid and (
        not np.array_equal(clean_tf.grid.nodes_b, noisy_tf.grid.nodes_b)
        or not np.array_equal(clean_tf.grid.nodes_a, noisy_tf.grid.nodes_a)
    ):
        raise ValidationError("clean and noisy fields must share a grid")
    delta = SampledField(
        grid=clean_tf.grid,
        values_b=noisy_tf.values_b - clean_tf.values_b,
        values_a=noisy_tf.values_a - clean_tf.values_a,
        time=clean_tf.time,
    )
    db, da = trapezoid_norm(delta)
    if db + da > reg.epsilon * (1.0 + NOISE_BUDGET_RTOL):
        raise ValidationError("perturbation exceeds the noise budget eps")
    lhs = _cutoff_norm_sq(basis, delta, reg, t)
    w_b, w_a = basis.sys.weights
    return lhs, _cutoff_gain(basis.sys, reg, t) * (w_b + w_a) * reg.epsilon**2


@dataclass(frozen=True)
class SourceCoefficients:
    """Per-slab source expansion D_{alpha n}(t_k) on a time grid."""

    times: np.ndarray
    d_b: np.ndarray  # shape (len(times), mode_count)
    d_a: np.ndarray

    def __post_init__(self) -> None:
        if self.d_b.shape != self.d_a.shape or self.d_b.shape[0] != len(self.times):
            raise ValidationError("source coefficient arrays must align with times")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("source time nodes must be strictly increasing")


def source_coefficients(
    basis: EigenBasis,
    f_b,
    f_a,
    time_nodes: np.ndarray,
    grid: Grid,
    mode_count: int,
    policy: str = "least-squares",
) -> SourceCoefficients:
    """Expand F_alpha(x,t)/(rho_alpha c_alpha) in the eigenfunctions.

    f_b(x, t), f_a(x, t) are vectorized in x.  At each time node the
    scaled source is fit on the grid by the same per-slab solve used for
    temperature data.
    """
    s = basis.sys
    times = np.asarray(time_nodes, dtype=float)
    rows_b, rows_a = [], []
    for t in times:
        fld = SampledField(
            grid=grid,
            values_b=np.asarray(f_b(grid.nodes_b, t), dtype=float) / s.mat_b.rho_c,
            values_a=np.asarray(f_a(grid.nodes_a, t), dtype=float) / s.mat_a.rho_c,
            time=t,
        )
        c = recover_coefficients(basis, fld, mode_count, policy=policy)
        rows_b.append(c.c_b)
        rows_a.append(c.c_a)
    return SourceCoefficients(times=times, d_b=np.array(rows_b), d_a=np.array(rows_a))


def source_compatibility(basis: EigenBasis, f_b, f_a, mode_count: int | None = None) -> np.ndarray:
    """Per-mode residuals of the cross-slab source compatibility condition.

    For a source consistent with one global expansion,
    (1/rho_a c_a) <F_a, phi_an> = (1/rho_b c_b) <F_b, phi_bn> for all n.
    ``f_b``/``f_a`` are callables of x at a frozen time.
    """
    s = basis.sys
    count = len(basis) if mode_count is None else mode_count
    inner_b, inner_a = _quadrature_inner(basis, f_b, f_a, count)
    return np.abs(inner_a / s.mat_a.rho_c - inner_b / s.mat_b.rho_c)


def simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson integral of y along axis 0 over 3 or more increasing nodes x.

    The rule of ``scipy.integrate.simpson`` (1.11 on): parabolas through
    consecutive pairs of (possibly unequal) intervals; for an even node
    count the last interval gets Cartwright's three-point correction.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    n = len(y)
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    total = np.sum(
        hsum
        / 6.0
        * (
            y[0:stop:2] * (2.0 - h1 / h0)
            + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
            + y[2 : stop + 2 : 2] * (2.0 - h0 / h1)
        ),
        axis=0,
    )
    if n % 2 == 0:
        h0, h1 = h[-2], h[-1]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        total = total + (alpha * y[-1] + beta * y[-2] - eta * y[-3])
    return total


def nonhomogeneous_solve(
    basis: EigenBasis,
    coeffs: CoeffVector,
    sources: SourceCoefficients,
    t: float,
    grid: Grid,
) -> SampledField:
    """Backward solution with a source term.

    T_alpha(x,t) = sum_n [ C_alpha_n e^{lambda_bar_n (tf-t)}
                           - integral_t^tf D_alpha_n(s) e^{lambda_bar_n (s-t)} ds ] phi_alpha_n(x)

    The integral uses composite Simpson over the stored time nodes that
    fall in [t, tf]; if t lands between nodes, D is linearly interpolated
    to the endpoint.  At least 3 nodes must cover [t, tf], and the last
    node must be tf itself.  A solution that is not finite at some node
    is refused (``NumericalError``), as ``synthesize`` refuses it.
    """
    count = len(coeffs)
    if sources.d_b.shape[1] != count:
        raise ValidationError("source coefficients disagree with coefficient count")
    times = sources.times
    if times[-1] != basis.sys.tf:
        raise ValidationError(f"source time nodes must end at tf, not {times[-1]!r}")
    inside = times >= t
    if t > times[-1] or np.count_nonzero(inside) + (0 if t in times else 1) < 3:
        raise ValidationError("insufficient time nodes in [t, tf] for Simpson rule")

    ts = times[inside]
    db = sources.d_b[inside]
    da = sources.d_a[inside]
    if ts[0] > t:
        # linear interpolation of each mode's D at the sub-node endpoint
        j = int(np.searchsorted(times, t))
        if j == 0:
            raise ValidationError("time grid does not cover t")
        t_lo, t_hi = times[j - 1], times[j]
        w = (t - t_lo) / (t_hi - t_lo)
        ts = np.concatenate([[t], ts])
        db = np.vstack([(1 - w) * sources.d_b[j - 1] + w * sources.d_b[j], db])
        da = np.vstack([(1 - w) * sources.d_a[j - 1] + w * sources.d_a[j], da])

    # the guard first: no growth factor below exceeds exp(lambda_bar_n (tf-t))
    amp = amplification_factors(basis, count, t)
    lam = basis.lambda_bars()[:count]
    Pb, Pa = _mode_matrices(basis, grid, count)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(lam[None, :] * (ts[:, None] - t))
        int_b = simpson(db * growth, ts)
        int_a = simpson(da * growth, ts)
        # the effective coefficients carry their time factors: no amplification follows
        values_b = Pb @ (coeffs.c_b * amp - int_b)
        values_a = Pa @ (coeffs.c_a * amp - int_a)
    return _series_field(grid, values_b, values_a, t)
