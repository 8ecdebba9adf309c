"""Eigenfunctions of the two-slab problem and their inner products.

Each eigen-element n is a pair of cosines,

    phi_b(x) = A_b cos(lambda_b (x + b))   on [-b, 0],
    phi_a(x) = A_a cos(lambda_a (x - a))   on [0, a],

normalized so both slabs take the value 1 at the interface whenever
cos(lambda_b b) and cos(lambda_a a) stay away from zero.  When either
cosine (numerically) vanishes the interface value cannot be pinned to 1;
those modes fall back to the unit-norm null vector of the 2x2 interface
system.  Norms and Gram matrices are closed forms; a basis builds its
Gauss-Legendre rule only when a callable has to be integrated against
the modes.

``build_basis`` evaluates each closed form once for all modes, as array
expressions over the frequencies: the amplitudes with their degenerate
flags, then N_n and M_n.  Every mode's norms, the constant and the
degenerate ones included, are each layer's amp^2 (L/2) (1 +- sinc(2 lambda
L/pi)) summed over the layers, so N_n is the weighted diagonal of
``slab_grams``.  The degenerate-interface modes share one stacked SVD of
their 2x2 systems.  The ``EigenMode`` records are then built in one pass
over the columns, and the basis keeps the columns as arrays too.
Squares of frequencies use ``np.float_power(x, 2.0)``, which rounds as
Python's ``x**2`` does, so every record equals its per-mode scalar form
bit for bit.

The family is orthogonal in the weighted inner product

    (K_b/kappa_b) <f, g>_{L2(-b,0)} + (K_a/kappa_a) <f, g>_{L2(0,a)},

with squared norms N_n; the derivative family is orthogonal with
weights K_b, K_a and squared norms M_n = lambda_bar_n * N_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import SlabSystem, ValidationError
from .eigensolver import EigenValuePair, find_eigenvalues

# |cos| below this at the interface marks the mode as degenerate.
DEGENERATE_COS_TOL = 1e-6


@lru_cache(maxsize=128)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


# Callables are integrated panel by panel with one fixed-order Gauss rule;
# a panel spans at most PANEL_PHASE radians of the fastest mode, which
# keeps cos products at machine accuracy (about 4 nodes per radian).
PANEL_ORDER = 16
PANEL_PHASE = 4.0


def _composite_rule(lo: float, hi: float, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite PANEL_ORDER-point Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(PANEL_ORDER)
    panels = max(4, math.ceil(lam_max * (hi - lo) / PANEL_PHASE))
    half = 0.5 * (hi - lo) / panels
    mids = lo + half * (2 * np.arange(panels) + 1)
    return (mids[:, None] + half * x).ravel(), np.tile(half * w, panels)


@dataclass(frozen=True)
class EigenMode:
    """One eigen-element with its slab amplitudes and squared norms."""

    pair: EigenValuePair
    norm_N: float
    norm_M: float
    amp_b: float
    amp_a: float
    degenerate_interface: bool = False


def phi(mode: EigenMode, x, sys: SlabSystem):
    """Eigenfunction values; the x >= 0 branch uses the right slab."""
    xs = np.asarray(x, dtype=float)
    left = mode.amp_b * np.cos(mode.pair.lambda_b * (xs + sys.b))
    right = mode.amp_a * np.cos(mode.pair.lambda_a * (xs - sys.a))
    out = np.where(xs < 0.0, left, right)
    if np.isscalar(x):
        return float(out)
    return out


def _interface_null_vectors(sys: SlabSystem, lam_b, lam_a, cos_b, cos_a):
    """Unit-norm (theta_b, theta_a) solving each mode's homogeneous interface system.

    The 2x2 systems [[cos_b, -cos_a], [K_b lam_b sin(lam_b b), K_a lam_a sin(lam_a a)]]
    of all modes go through one stacked SVD.
    """
    A = np.empty((len(lam_b), 2, 2))
    A[:, 0, 0] = cos_b
    A[:, 0, 1] = -cos_a
    A[:, 1, 0] = sys.mat_b.K * lam_b * np.sin(lam_b * sys.b)
    A[:, 1, 1] = sys.mat_a.K * lam_a * np.sin(lam_a * sys.a)
    theta = np.linalg.svd(A)[2][:, -1]
    # deterministic sign: the component that cannot vanish is positive.  That
    # is theta_b when cos(lambda_b b) vanishes, and theta_a otherwise.
    lead = np.where(np.abs(cos_b) < DEGENERATE_COS_TOL, theta[:, 0], theta[:, 1])
    theta = np.where(lead[:, None] < 0, -theta, theta)
    return theta[:, 0], theta[:, 1]


def _interface_amplitudes(sys: SlabSystem, lam_b, lam_a):
    """Slab amplitudes (amp_b, amp_a) and degenerate flags of the modes with these frequencies.

    1/cos pins both slabs to 1 at the interface; where cos(lambda_b b) or
    cos(lambda_a a) (numerically) vanishes, the mode is flagged degenerate
    and the unit-norm interface null vector is used instead.  Elementwise.
    """
    cos_b, cos_a = np.cos(lam_b * sys.b), np.cos(lam_a * sys.a)
    degenerate = (np.abs(cos_b) < DEGENERATE_COS_TOL) | (np.abs(cos_a) < DEGENERATE_COS_TOL)
    amp_b, amp_a = np.empty_like(cos_b), np.empty_like(cos_a)
    np.divide(1.0, cos_b, out=amp_b, where=~degenerate)
    np.divide(1.0, cos_a, out=amp_a, where=~degenerate)
    if degenerate.any():
        amp_b[degenerate], amp_a[degenerate] = _interface_null_vectors(
            sys, lam_b[degenerate], lam_a[degenerate], cos_b[degenerate], cos_a[degenerate]
        )
    return amp_b, amp_a, degenerate


@dataclass(frozen=True)
class EigenBasis:
    """Ordered eigen-elements of one system.

    Frequencies, decay rates, amplitudes and the norms N_n are also kept
    as arrays, one entry per mode.  The composite Gauss-Legendre rule for
    callables (``quad_x_b``, ``quad_w_b``, ``quad_x_a``, ``quad_w_a``) is
    built on first access and cached.
    """

    sys: SlabSystem
    modes: tuple[EigenMode, ...]
    lambda_b: np.ndarray
    lambda_a: np.ndarray
    lambda_bar: np.ndarray
    amp_b: np.ndarray
    amp_a: np.ndarray
    norm_N: np.ndarray

    def __len__(self) -> int:
        return len(self.modes)

    def lambda_bars(self) -> np.ndarray:
        return self.lambda_bar

    def phi(self, n: int, x):
        return phi(self.modes[n], x, self.sys)

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        s = self.sys
        xb, wb = _composite_rule(-s.b, 0.0, max(float(self.lambda_b[-1]), 1.0))
        xa, wa = _composite_rule(0.0, s.a, max(float(self.lambda_a[-1]), 1.0))
        return xb, wb, xa, wa

    @property
    def quad_x_b(self) -> np.ndarray:
        return self._quadrature[0]

    @property
    def quad_w_b(self) -> np.ndarray:
        return self._quadrature[1]

    @property
    def quad_x_a(self) -> np.ndarray:
        return self._quadrature[2]

    @property
    def quad_w_a(self) -> np.ndarray:
        return self._quadrature[3]


def slab_matrix(basis: EigenBasis, nodes: np.ndarray, slab: str, mode_count: int) -> np.ndarray:
    """Matrix of phi_{alpha n}(x_j), rows nodes, columns modes 0..mode_count-1."""
    nodes = np.asarray(nodes, dtype=float)
    k = slice(mode_count)
    if slab == "b":
        return basis.amp_b[k] * np.cos(np.outer(nodes + basis.sys.b, basis.lambda_b[k]))
    if slab == "a":
        return basis.amp_a[k] * np.cos(np.outer(nodes - basis.sys.a, basis.lambda_a[k]))
    raise ValueError("slab must be 'b' or 'a'")


def _mode_norms(sys: SlabSystem, lam_b, lam_a, amp_b, amp_a):
    """(N_n, M_n) of the modes amp_alpha cos(lambda_alpha s), summed over the layers; elementwise.

    On a layer of length L, amp^2 times the integral of cos^2 (sin^2) over
    [0, L] is amp^2 (L/2) (1 +- sinc(2 lambda L/pi)); the cos^2 term is
    ``_cos_products``' diagonal, evaluated the same way, so N_n is the
    weighted diagonal of ``slab_grams`` bit for bit.  np.sinc covers lambda = 0.
    """
    N = M = 0.0
    w_b, w_a = sys.weights
    for w, mat, lam, length, amp in (
        (w_b, sys.mat_b, lam_b, sys.b, amp_b),
        (w_a, sys.mat_a, lam_a, sys.a, amp_a),
    ):
        sq = amp * amp * (0.5 * length)
        wobble = np.sinc((lam + lam) * (length / math.pi))
        N += w * (sq * (1.0 + wobble))
        M += mat.K * np.float_power(lam, 2.0) * (sq * (1.0 - wobble))
    return N, M


def build_basis(sys: SlabSystem, mode_count: int) -> EigenBasis:
    """Compute the first mode_count eigen-elements with norms attached.

    Amplitudes and norms of all modes are array expressions over the
    frequencies; the degenerate-interface modes take their amplitudes from
    one stacked null-vector solve, and the records are built in one pass.
    """
    if mode_count < 1:
        raise ValidationError("mode_count must be at least 1")
    pairs = find_eigenvalues(sys, mode_count - 1)
    lam_b = np.array([p.lambda_b for p in pairs])
    lam_a = np.array([p.lambda_a for p in pairs])
    lam_bar = np.array([p.lambda_bar for p in pairs])
    amp_b, amp_a, degenerate = _interface_amplitudes(sys, lam_b, lam_a)
    norm_N, norm_M = _mode_norms(sys, lam_b, lam_a, amp_b, amp_a)
    modes = tuple(
        map(
            EigenMode, pairs, norm_N.tolist(), norm_M.tolist(),
            amp_b.tolist(), amp_a.tolist(), degenerate.tolist(),
        )
    )
    return EigenBasis(
        sys, modes, lambda_b=lam_b, lambda_a=lam_a, lambda_bar=lam_bar,
        amp_b=amp_b, amp_a=amp_a, norm_N=norm_N,
    )


def _cos_products(lam: np.ndarray, amp: np.ndarray, length: float) -> np.ndarray:
    """Every pair's amp_m amp_n * integral over [0, length] of cos(l_m s) cos(l_n s).

    The product-to-sum identity gives (length/2) [sinc(d) + sinc(t)]
    with d, t = (l_m -+ l_n) length/pi; np.sinc covers l_m = l_n and l = 0.
    """
    d = np.subtract.outer(lam, lam) * (length / math.pi)
    t = np.add.outer(lam, lam) * (length / math.pi)
    return np.outer(amp, amp) * (0.5 * length) * (np.sinc(d) + np.sinc(t))


def slab_grams(basis: EigenBasis, mode_count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-slab (unweighted) Gram matrices of the eigenfunctions, in closed form."""
    s = basis.sys
    k = slice(len(basis) if mode_count is None else mode_count)
    return (
        _cos_products(basis.lambda_b[k], basis.amp_b[k], s.b),
        _cos_products(basis.lambda_a[k], basis.amp_a[k], s.a),
    )
