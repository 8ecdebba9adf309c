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

Backward reconstruction works on a fixed-y slice: with |Theta(eps)|
retained modes, the slice is collocated on exactly that many nodes per
layer and the square systems are solved per layer.
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
    uniform_grid,
)
from .basis import DEGENERATE_COS_TOL, _interface_null_vector
from .eigensolver import EigenValuePair, scan_roots
from .spectral import _solve_slab, growth_factors


class EvanescentBranchError(ValidationError):
    """nu_b too small for the requested mu: right-layer mode not oscillatory."""


def _require_c(sys: SlabSystem) -> float:
    if sys.c is None:
        raise ValidationError("2D routines need a system with transverse depth c")
    return sys.c


def nu_a_of(nu_b, mu: float, sys: SlabSystem):
    """Right-layer frequency paired with nu_b at transverse wavenumber mu."""
    ratio = sys.mat_b.kappa / sys.mat_a.kappa
    radicand = ratio * np.asarray(nu_b, dtype=float) ** 2 + (ratio - 1.0) * mu**2
    # tolerate rounding dust at the oscillatory threshold itself
    if np.any(radicand < -1e-12 * max(1.0, mu * mu)):
        raise EvanescentBranchError(
            f"negative radicand at mu = {mu!r}: evanescent branch requested"
        )
    out = np.sqrt(np.maximum(radicand, 0.0))
    if np.isscalar(nu_b):
        return float(out)
    return out


def eigen_f_2d(nu_b, mu: float, sys: SlabSystem):
    """2D interface determinant, vectorized over nu_b."""
    nb = np.asarray(nu_b, dtype=float)
    na = nu_a_of(nb, mu, sys)
    out = sys.mat_b.K * nb * np.sin(nb * sys.b) * np.cos(na * sys.a) + sys.mat_a.K * (
        na
    ) * np.sin(na * sys.a) * np.cos(nb * sys.b)
    if np.isscalar(nu_b):
        return float(out)
    return out


@dataclass(frozen=True)
class Mode2D:
    """One plate mode: transverse index m, layer frequencies, decay rate."""

    m: int
    n: int
    mu: float
    nu_b: float
    nu_a: float
    lambda_bar: float
    amp_b: float
    amp_a: float
    degenerate_interface: bool = False


@dataclass(frozen=True)
class Basis2D:
    sys: SlabSystem
    modes: tuple[Mode2D, ...]

    def __len__(self) -> int:
        return len(self.modes)


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


def _x_amplitudes(sys: SlabSystem, nu_b: float, nu_a: float) -> tuple[float, float, bool]:
    cos_b = math.cos(nu_b * sys.b)
    cos_a = math.cos(nu_a * sys.a)
    if nu_b == 0.0 and nu_a == 0.0:
        return 1.0, 1.0, False
    if abs(cos_b) < DEGENERATE_COS_TOL or abs(cos_a) < DEGENERATE_COS_TOL:
        pair = EigenValuePair(n=1, lambda_b=nu_b, lambda_a=nu_a, lambda_bar=0.0)
        th_b, th_a = _interface_null_vector(sys, pair)
        return th_b, th_a, True
    return 1.0 / cos_b, 1.0 / cos_a, False


def phi_2d(mode: Mode2D, x, y, sys: SlabSystem):
    """Mode values X_alpha(x) * Y_m(y); x >= 0 uses the right layer."""
    c = _require_c(sys)
    xs = np.asarray(x, dtype=float)
    left = mode.amp_b * np.cos(mode.nu_b * (xs + sys.b))
    right = mode.amp_a * np.cos(mode.nu_a * (xs - sys.a))
    out = np.where(xs < 0.0, left, right) * y_mode(mode.m, y, c)
    if np.isscalar(x) and np.isscalar(y):
        return float(out)
    return out


def find_modes_2d(
    sys: SlabSystem,
    n_eps: float,
    scan_step: float = 1e-3,
    refine_tol: float = 1e-12,
) -> Basis2D:
    """All modes with lambda_bar <= n_eps, sorted by (lambda_bar, m, n).

    For each admissible transverse index m the x-frequencies are the
    roots of the interface determinant scanned over the oscillatory
    range; the scan window is closed-form here since lambda_bar <= n_eps
    bounds nu_b directly.
    """
    c = _require_c(sys)
    if n_eps < 0:
        raise ValidationError("n_eps must be non-negative")
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    modes: list[Mode2D] = []
    m = 0
    while kb * (m * math.pi / c) ** 2 <= n_eps:
        mu = m * math.pi / c
        nu_hi = math.sqrt(max(0.0, n_eps / kb - mu**2))
        # right layer oscillatory only from this frequency up
        nu_lo = mu * math.sqrt(max(0.0, ka / kb - 1.0))
        roots: list[float] = []
        if nu_hi >= nu_lo:
            roots = scan_roots(
                lambda v: eigen_f_2d(v, mu, sys), nu_lo, nu_hi, scan_step, refine_tol
            )
        for n, nu_b in enumerate(roots):
            if m == 0 and n == 0:
                nu_b = 0.0
            nu_a = nu_a_of(nu_b, mu, sys)
            amp_b, amp_a, degen = _x_amplitudes(sys, nu_b, nu_a)
            modes.append(
                Mode2D(
                    m=m,
                    n=n,
                    mu=mu,
                    nu_b=nu_b,
                    nu_a=nu_a,
                    lambda_bar=kb * (nu_b**2 + mu**2),
                    amp_b=amp_b,
                    amp_a=amp_a,
                    degenerate_interface=degen,
                )
            )
        m += 1
    modes.sort(key=lambda md: (md.lambda_bar, md.m, md.n))
    return Basis2D(sys=sys, modes=tuple(modes))


def slice_grid(sys: SlabSystem, mode_count: int) -> Grid:
    """Per-layer collocation nodes for a slice solve with mode_count modes."""
    return uniform_grid(sys, mode_count)


def slice_matrix(basis2d: Basis2D, nodes: np.ndarray, slab: str, y0: float) -> np.ndarray:
    """Collocation matrix of phi_2d values at fixed y0 for one layer."""
    c = _require_c(basis2d.sys)
    nodes = np.asarray(nodes, dtype=float)
    cols = []
    for md in basis2d.modes:
        if slab == "b":
            xpart = md.amp_b * np.cos(md.nu_b * (nodes + basis2d.sys.b))
        elif slab == "a":
            xpart = md.amp_a * np.cos(md.nu_a * (nodes - basis2d.sys.a))
        else:
            raise ValueError("slab must be 'b' or 'a'")
        cols.append(xpart * y_mode(md.m, y0, c))
    return np.column_stack(cols)


def recover_slice_coefficients(
    basis2d: Basis2D, field: SampledField, y0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Square per-layer solves of the slice collocation systems."""
    count = len(basis2d)
    out = []
    for slab, nodes, values in (
        ("b", field.grid.nodes_b, field.values_b),
        ("a", field.grid.nodes_a, field.values_a),
    ):
        if len(nodes) != count:
            raise ValidationError(
                f"layer {slab}: slice solve needs exactly {count} nodes, got {len(nodes)}"
            )
        A = slice_matrix(basis2d, nodes, slab, y0)
        out.append(_solve_slab(A, np.asarray(values, float), float(np.linalg.cond(A))))
    return out[0], out[1]


def synthesize_slice(
    basis2d: Basis2D,
    c_b: np.ndarray,
    c_a: np.ndarray,
    y0: float,
    t: float,
    grid: Grid,
) -> SampledField:
    """Evaluate the amplified slice series on a grid at time t."""
    lam = np.array([md.lambda_bar for md in basis2d.modes])
    amp = growth_factors(lam, basis2d.sys.tf - t)
    Pb = slice_matrix(basis2d, grid.nodes_b, "b", y0)
    Pa = slice_matrix(basis2d, grid.nodes_a, "a", y0)
    return SampledField(
        grid=grid, values_b=Pb @ (c_b * amp), values_a=Pa @ (c_a * amp), time=t
    )


def reconstruct_2d_slice(
    sys: SlabSystem,
    measured_tf: SampledField,
    reg: RegParams,
    y0: float,
    t: float,
    scan_step: float = 1e-3,
    refine_tol: float = 1e-12,
) -> SampledField:
    """Cut-off reconstruction of the y0-slice at time t from final data.

    The measurement grid must carry exactly |Theta(eps)| nodes per layer
    (see ``slice_grid``); the amplified series is returned on that grid.
    """
    c = _require_c(sys)
    if not (0.0 <= y0 <= c):
        raise ValidationError("y0 must lie in [0, c]")
    if not (sys.t0 <= t <= sys.tf):
        raise ValidationError("t must lie in [t0, tf]")
    basis2d = find_modes_2d(sys, reg.n_eps, scan_step, refine_tol)
    if len(basis2d) == 0:
        raise ValidationError("cut-off removed every 2D mode; nothing to reconstruct")
    c_b, c_a = recover_slice_coefficients(basis2d, measured_tf, y0)
    return synthesize_slice(basis2d, c_b, c_a, y0, t, measured_tf.grid)
