"""Forward evolution and regularized backward reconstruction.

The backward problem amplifies mode n by exp(lambda_bar_n (tf - t)), so
unfiltered recovery from noisy final data explodes.  The cut-off rule
keeps only modes with lambda_bar_n <= N_eps where

    N_eps = beta * ln(eps^-gamma) / tf,

which caps the amplification of every retained mode at eps^{-beta gamma}
over the full window.  The three bound checkers evaluate both sides of
the growth/stability estimates numerically; the series norms come from
the closed-form slab Gram matrices, so neither side carries quadrature
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    trapezoid_norm,
)
from .basis import EigenBasis, slab_grams, slab_matrix
from .spectral import (
    CoeffVector,
    amplification_factors,
    project_coefficients,
    recover_coefficients,
    synthesize,
)

# Relative round-off by which a measured perturbation may exceed its noise budget.
NOISE_BUDGET_RTOL = 1e-9


@dataclass(frozen=True)
class AdmissibleSet:
    """Indices of modes whose decay rate clears the cut-off (a prefix)."""

    n_eps: float
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def admissible_set(basis: EigenBasis, n_eps: float) -> AdmissibleSet:
    """All n with lambda_bar_n <= n_eps (inclusive at the boundary)."""
    lam = basis.lambda_bars()
    idx = np.flatnonzero(lam <= n_eps)
    # decay rates are ascending, so admissibility is a prefix
    return AdmissibleSet(n_eps=n_eps, indices=tuple(int(i) for i in idx))


def forward_solve(
    basis: EigenBasis,
    initial,
    grid: Grid,
    mode_count: int,
    policy: str = "least-squares",
) -> SampledField:
    """Evolve initial data at t0 to the final time tf.

    ``initial`` is a SampledField at t0 or a pair of callables (f_b, f_a)
    which are sampled on ``grid``.  Coefficients are recovered per slab
    from the samples, then decayed by exp(-lambda_bar_n (tf - t0)).
    """
    s = basis.sys
    if isinstance(initial, SampledField):
        field0 = initial
    else:
        f_b, f_a = initial
        field0 = SampledField(
            grid=grid,
            values_b=np.asarray(f_b(grid.nodes_b), dtype=float),
            values_a=np.asarray(f_a(grid.nodes_a), dtype=float),
            time=s.t0,
        )
    c0 = recover_coefficients(basis, field0, mode_count, policy=policy)
    decay = np.exp(-c0.basis.lambda_bars()[:mode_count] * s.window)
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
    on the measurement grid.
    """
    s = basis.sys
    if not (s.t0 <= t <= s.tf):
        raise ValidationError("t must lie in [t0, tf]")
    adm = admissible_set(basis, reg.n_eps)
    if len(adm) == 0:
        raise ValidationError("cut-off removed every mode; nothing to reconstruct")
    coeffs = recover_coefficients(basis, measured_tf, len(adm), policy=policy)
    return synthesize(basis, coeffs, t, measured_tf.grid)


def _series_norms_sq(
    basis: EigenBasis, c_b: np.ndarray, c_a: np.ndarray
) -> tuple[float, float]:
    """Per-slab squared L2 norms of a per-slab coefficient series."""
    count = len(c_b)
    Gb, Ga = slab_grams(basis, count)
    return float(c_b @ Gb @ c_b), float(c_a @ Ga @ c_a)


def instability_lower_bound(
    basis: EigenBasis, coeffs: CoeffVector, t: float
) -> tuple[float, float]:
    """Both sides of the backward-growth lower bound.

    lhs: squared L2(-b,a) norm of the series at time t (closed-form Grams).
    rhs: max{K_b/kappa_b, K_a/kappa_a, 1}^-1 *
         sum_n min(C_bn^2, C_an^2) exp(2 lambda_bar_n (tf-t)) N_n.
    The theorem asserts lhs >= rhs: amplified modes force growth.
    """
    s = basis.sys
    count = len(coeffs)
    amp = amplification_factors(basis, count, t)
    nb, na = _series_norms_sq(basis, coeffs.c_b * amp, coeffs.c_a * amp)
    lhs = nb + na
    wmax = max(s.mat_b.K / s.mat_b.kappa, s.mat_a.K / s.mat_a.kappa, 1.0)
    N = np.array([basis.modes[n].norm_N for n in range(count)])
    rhs = float(np.sum(np.minimum(coeffs.c_b**2, coeffs.c_a**2) * amp**2 * N) / wmax)
    return lhs, rhs


def _min_weight_inv(s: SlabSystem) -> float:
    return 1.0 / min(s.mat_b.K / s.mat_b.kappa, s.mat_a.K / s.mat_a.kappa, 1.0)


def stability_bound(
    basis: EigenBasis,
    final_field: SampledField,
    reg: RegParams,
    t: float,
) -> tuple[float, float]:
    """Both sides of the cut-off stability estimate.

    The admissible coefficients are the weighted orthogonal projections
    of the final data (per-slab least squares can return gauge-wild
    representations that the estimate says nothing about).
    lhs: squared L2 norm of the cut-off reconstruction at time t.
    rhs: min{K_b/kappa_b, K_a/kappa_a, 1}^-1 * N_eps * exp(2 N_eps (tf-t))
         * [w_b ||T_b(tf)||^2 + w_a ||T_a(tf)||^2].
    The theorem asserts lhs <= rhs.
    """
    s = basis.sys
    adm = admissible_set(basis, reg.n_eps)
    k = len(adm)
    coeffs = project_coefficients(basis, final_field, k)
    amp = amplification_factors(basis, k, t)
    nb, na = _series_norms_sq(basis, coeffs.c_b * amp, coeffs.c_a * amp)
    lhs = nb + na
    db, da = trapezoid_norm(final_field)
    w_b = s.mat_b.K / s.mat_b.kappa
    w_a = s.mat_a.K / s.mat_a.kappa
    rhs = (
        _min_weight_inv(s)
        * reg.n_eps
        * math.exp(2.0 * reg.n_eps * (s.tf - t))
        * (w_b * db**2 + w_a * da**2)
    )
    return lhs, rhs


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
    s = basis.sys
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
    adm = admissible_set(basis, reg.n_eps)
    k = len(adm)
    coeffs = project_coefficients(basis, delta, k)
    amp = amplification_factors(basis, k, t)
    nb, na = _series_norms_sq(basis, coeffs.c_b * amp, coeffs.c_a * amp)
    lhs = nb + na
    w_b = s.mat_b.K / s.mat_b.kappa
    w_a = s.mat_a.K / s.mat_a.kappa
    rhs = (
        _min_weight_inv(s)
        * reg.n_eps
        * math.exp(2.0 * reg.n_eps * (s.tf - t))
        * (w_b + w_a)
        * reg.epsilon**2
    )
    return lhs, rhs


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
    vb = np.asarray(f_b(basis.quad_x_b), dtype=float)
    va = np.asarray(f_a(basis.quad_x_a), dtype=float)
    Pb = slab_matrix(basis, basis.quad_x_b, "b", count)
    Pa = slab_matrix(basis, basis.quad_x_a, "a", count)
    inner_b = Pb.T @ (basis.quad_w_b * vb) / s.mat_b.rho_c
    inner_a = Pa.T @ (basis.quad_w_a * va) / s.mat_a.rho_c
    return np.abs(inner_a - inner_b)


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
    to the endpoint.  At least 3 nodes must cover [t, tf].
    """
    s = basis.sys
    count = len(coeffs)
    if sources.d_b.shape[1] != count:
        raise ValidationError("source coefficients disagree with coefficient count")
    times = sources.times
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

    lam = basis.lambda_bars()[:count]
    growth = np.exp(lam[None, :] * (ts[:, None] - t))
    int_b = simpson(db * growth, ts)
    int_a = simpson(da * growth, ts)

    amp = amplification_factors(basis, count, t)
    eff = CoeffVector(
        basis=basis,
        c_b=coeffs.c_b * amp - int_b,
        c_a=coeffs.c_a * amp - int_a,
    )
    # coefficients already carry their time factors; synthesize at tf applies none
    Pb = slab_matrix(basis, grid.nodes_b, "b", count)
    Pa = slab_matrix(basis, grid.nodes_a, "a", count)
    return SampledField(grid=grid, values_b=Pb @ eff.c_b, values_a=Pa @ eff.c_a, time=t)
