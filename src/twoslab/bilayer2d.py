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

The roots in nu_b are found per transverse index m by a uniform scan
for sign changes; the scan keeps only each m's brackets and grid hits,
and the brackets of every m are bisected together in one call.

Backward reconstruction works on a fixed-y slice: with |Theta(eps)|
retained modes, the slice is collocated on exactly that many nodes per
layer (``core.uniform_grid``) and the square systems are solved per
layer by the recovery and synthesis cores of ``spectral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, RegParams, SampledField, SlabSystem, ValidationError
from .basis import _interface_amplitudes
from .eigensolver import _bisect_brackets, _merge_roots, _scan_brackets
from .spectral import CoeffVector, _recover, _synthesize

# Root scan of the interface determinant: grid step in nu_b and the
# bisection tolerance of each bracketed root.
SCAN_STEP = 1e-3
REFINE_TOL = 1e-12


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


def eigen_f_2d(nu_b, mu, sys: SlabSystem):
    """2D interface determinant, vectorized over nu_b and mu."""
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

    def lambda_bars(self) -> np.ndarray:
        return np.array([md.lambda_bar for md in self.modes])


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


def find_modes_2d(sys: SlabSystem, n_eps: float) -> Basis2D:
    """All modes with lambda_bar <= n_eps, sorted by (lambda_bar, m, n).

    For each admissible transverse index m the x-frequencies are the
    roots of the interface determinant scanned over the oscillatory
    range; the scan window is closed-form here since lambda_bar <= n_eps
    bounds nu_b directly.  Each m is scanned on its own grid, of which
    only the grid hits and sign-change brackets are kept; the brackets of
    every m are then bisected together, each with its own mu.
    """
    c = _require_c(sys)
    if not n_eps >= 0:
        raise ValidationError("n_eps must be non-negative")
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    scans = []
    m = 0
    while kb * (m * math.pi / c) ** 2 <= n_eps:
        mu = m * math.pi / c
        nu_hi = math.sqrt(max(0.0, n_eps / kb - mu**2))
        # right layer oscillatory only from this frequency up
        nu_lo = mu * math.sqrt(max(0.0, ka / kb - 1.0))
        if nu_hi >= nu_lo:
            f = lambda v: eigen_f_2d(v, mu, sys)
            scans.append((m, mu, *_scan_brackets(f, nu_lo, nu_hi, SCAN_STEP)))
        m += 1
    # m = 0 always scans, so there is at least one entry
    ms, mus, hits, lower, upper, sign = zip(*scans)
    counts = [len(lo) for lo in lower]
    mu_of = np.repeat(mus, counts)
    refined = _bisect_brackets(
        lambda v: eigen_f_2d(v, mu_of, sys),
        np.concatenate(lower),
        np.concatenate(upper),
        np.concatenate(sign),
        REFINE_TOL,
    )
    modes: list[Mode2D] = []
    for m, mu, hits_m, lower_m, refined_m in zip(
        ms, mus, hits, lower, np.split(refined, np.cumsum(counts)[:-1])
    ):
        roots = _merge_roots(hits_m, lower_m, refined_m, SCAN_STEP)
        if m == 0 and len(roots):
            roots[0] = 0.0
        for n, (nu_b, nu_a) in enumerate(zip(roots.tolist(), nu_a_of(roots, mu, sys).tolist())):
            amp_b, amp_a, degen = _interface_amplitudes(sys, nu_b, nu_a)
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
    modes.sort(key=lambda md: (md.lambda_bar, md.m, md.n))
    return Basis2D(sys=sys, modes=tuple(modes))


def slice_matrix(basis2d: Basis2D, nodes: np.ndarray, slab: str, y0: float) -> np.ndarray:
    """Collocation matrix of phi_2d values at fixed y0 for one layer."""
    c = _require_c(basis2d.sys)
    nodes = np.asarray(nodes, dtype=float)
    modes = basis2d.modes
    if slab == "b":
        amp = np.array([md.amp_b for md in modes])
        xpart = amp * np.cos(np.outer(nodes + basis2d.sys.b, [md.nu_b for md in modes]))
    elif slab == "a":
        amp = np.array([md.amp_a for md in modes])
        xpart = amp * np.cos(np.outer(nodes - basis2d.sys.a, [md.nu_a for md in modes]))
    else:
        raise ValueError("slab must be 'b' or 'a'")
    return xpart * np.array([y_mode(md.m, y0, c) for md in modes])


def _slice_matrices(basis2d: Basis2D, grid: Grid, y0: float) -> tuple[np.ndarray, np.ndarray]:
    return slice_matrix(basis2d, grid.nodes_b, "b", y0), slice_matrix(basis2d, grid.nodes_a, "a", y0)


def _validate_slice(basis2d: Basis2D, field: SampledField) -> None:
    count = len(basis2d)
    for slab, nodes in (("b", field.grid.nodes_b), ("a", field.grid.nodes_a)):
        if len(nodes) != count:
            raise ValidationError(
                f"layer {slab}: slice solve needs exactly {count} nodes, got {len(nodes)}"
            )


def recover_slice_coefficients(
    basis2d: Basis2D, field: SampledField, y0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Square per-layer solves of the slice collocation systems."""
    _validate_slice(basis2d, field)
    Pb, Pa = _slice_matrices(basis2d, field.grid, y0)
    coeffs = _recover(basis2d, field, len(basis2d), "least-squares", Pb, Pa)
    return coeffs.c_b, coeffs.c_a


def synthesize_slice(
    basis2d: Basis2D,
    c_b: np.ndarray,
    c_a: np.ndarray,
    y0: float,
    t: float,
    grid: Grid,
) -> SampledField:
    """Evaluate the amplified slice series on a grid at time t."""
    coeffs = CoeffVector(basis=basis2d, c_b=c_b, c_a=c_a)
    return _synthesize(basis2d, coeffs, t, grid, *_slice_matrices(basis2d, grid, y0))


def reconstruct_2d_slice(
    sys: SlabSystem,
    measured_tf: SampledField,
    reg: RegParams,
    y0: float,
    t: float,
) -> SampledField:
    """Cut-off reconstruction of the y0-slice at time t from final data.

    The measurement grid must carry exactly |Theta(eps)| nodes per layer
    (see ``uniform_grid``); the amplified series is returned on that grid,
    evaluated from the same slice matrices the solves use.
    """
    c = _require_c(sys)
    if not (0.0 <= y0 <= c):
        raise ValidationError("y0 must lie in [0, c]")
    if not (sys.t0 <= t <= sys.tf):
        raise ValidationError("t must lie in [t0, tf]")
    basis2d = find_modes_2d(sys, reg.n_eps)
    if len(basis2d) == 0:
        raise ValidationError("cut-off removed every 2D mode; nothing to reconstruct")
    _validate_slice(basis2d, measured_tf)
    Pb, Pa = _slice_matrices(basis2d, measured_tf.grid, y0)
    coeffs = _recover(basis2d, measured_tf, len(basis2d), "least-squares", Pb, Pa)
    return _synthesize(basis2d, coeffs, t, measured_tf.grid, Pb, Pa)
