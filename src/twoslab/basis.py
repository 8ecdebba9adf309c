"""Eigenfunctions of the two-slab problem and their inner products.

Each eigen-element n is a pair of cosines,

    phi_b(x) = A_b cos(lambda_b (x + b))   on [-b, 0],
    phi_a(x) = A_a cos(lambda_a (x - a))   on [0, a],

normalized so both slabs take the value 1 at the interface whenever
cos(lambda_b b) and cos(lambda_a a) stay away from zero.  When either
cosine (numerically) vanishes the interface value cannot be pinned to 1;
those modes fall back to the unit-norm null vector of the 2x2 interface
system, whose norms have closed forms too.  Norms and Gram matrices are
closed forms; a basis builds its Gauss-Legendre rule only when a
callable has to be integrated against the modes.

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

from .core import NumericalError, SlabSystem, ValidationError
from .eigensolver import EigenValuePair, find_eigenvalues

# |cos| below this at the interface marks the mode as degenerate.
DEGENERATE_COS_TOL = 1e-6


class DegenerateInterfaceError(NumericalError):
    """Closed-form norm requested for a degenerate-interface mode."""


@lru_cache(maxsize=128)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre(f, lo: float, hi: float, order: int) -> float:
    """Gauss-Legendre quadrature of f over [lo, hi]; f takes ndarrays."""
    x, w = _leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.dot(w, np.asarray(f(mid + half * x), dtype=float)))


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


def phi_prime(mode: EigenMode, x, sys: SlabSystem):
    """Analytic derivative of phi; zero at both outer faces."""
    xs = np.asarray(x, dtype=float)
    lb, la = mode.pair.lambda_b, mode.pair.lambda_a
    left = -mode.amp_b * lb * np.sin(lb * (xs + sys.b))
    right = -mode.amp_a * la * np.sin(la * (xs - sys.a))
    out = np.where(xs < 0.0, left, right)
    if np.isscalar(x):
        return float(out)
    return out


def norm_N_closed(sys: SlabSystem, pair: EigenValuePair) -> float:
    """Closed-form squared weighted norm N_n of the interface-normalized mode."""
    mb, ma = sys.mat_b, sys.mat_a
    if pair.n == 0:
        return sys.b * mb.K / mb.kappa + sys.a * ma.K / ma.kappa
    cos_b = math.cos(pair.lambda_b * sys.b)
    cos_a = math.cos(pair.lambda_a * sys.a)
    if abs(cos_b) < DEGENERATE_COS_TOL or abs(cos_a) < DEGENERATE_COS_TOL:
        raise DegenerateInterfaceError(
            f"mode {pair.n}: interface cosine vanishes, closed-form norm undefined"
        )
    return (sys.b * mb.K / (2 * mb.kappa)) / cos_b**2 + (
        sys.a * ma.K / (2 * ma.kappa)
    ) / cos_a**2


def norm_M_closed(sys: SlabSystem, pair: EigenValuePair) -> float:
    """Closed-form squared derivative norm M_n; equals lambda_bar_n * N_n."""
    if pair.n == 0:
        return 0.0
    cos_b = math.cos(pair.lambda_b * sys.b)
    cos_a = math.cos(pair.lambda_a * sys.a)
    if abs(cos_b) < DEGENERATE_COS_TOL or abs(cos_a) < DEGENERATE_COS_TOL:
        raise DegenerateInterfaceError(
            f"mode {pair.n}: interface cosine vanishes, closed-form norm undefined"
        )
    return (sys.b * sys.mat_b.K / 2) * pair.lambda_b**2 / cos_b**2 + (
        sys.a * sys.mat_a.K / 2
    ) * pair.lambda_a**2 / cos_a**2


def _interface_null_vector(sys: SlabSystem, pair: EigenValuePair) -> tuple[float, float]:
    """Unit-norm (theta_b, theta_a) solving the homogeneous interface system."""
    lb, la = pair.lambda_b, pair.lambda_a
    A = np.array(
        [
            [math.cos(lb * sys.b), -math.cos(la * sys.a)],
            [
                sys.mat_b.K * lb * math.sin(lb * sys.b),
                sys.mat_a.K * la * math.sin(la * sys.a),
            ],
        ]
    )
    _, _, vt = np.linalg.svd(A)
    theta = vt[-1]
    # deterministic sign: leading non-negligible component positive
    lead = theta[0] if abs(theta[0]) >= abs(theta[1]) else theta[1]
    if lead < 0:
        theta = -theta
    return float(theta[0]), float(theta[1])


@dataclass(frozen=True)
class EigenBasis:
    """Ordered eigen-elements of one system.

    Frequencies and amplitudes are also kept as arrays, one entry per
    mode.  The composite Gauss-Legendre rule for callables (``quad_x_b``,
    ``quad_w_b``, ``quad_x_a``, ``quad_w_a``) is built on first access and
    cached.
    """

    sys: SlabSystem
    modes: tuple[EigenMode, ...]
    lambda_b: np.ndarray
    lambda_a: np.ndarray
    amp_b: np.ndarray
    amp_a: np.ndarray

    def __len__(self) -> int:
        return len(self.modes)

    def lambda_bars(self) -> np.ndarray:
        return np.array([m.pair.lambda_bar for m in self.modes])

    def phi(self, n: int, x):
        return phi(self.modes[n], x, self.sys)

    def phi_prime(self, n: int, x):
        return phi_prime(self.modes[n], x, self.sys)

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


def _degenerate_norms(
    sys: SlabSystem, pair: EigenValuePair, th_b: float, th_a: float
) -> tuple[float, float]:
    """Closed-form (N_n, M_n) of the mode theta_alpha cos(lambda_alpha s) on each slab."""
    N = M = 0.0
    for mat, lam, length, th in (
        (sys.mat_b, pair.lambda_b, sys.b, th_b),
        (sys.mat_a, pair.lambda_a, sys.a, th_a),
    ):
        wobble = math.sin(2 * lam * length) / (4 * lam)
        N += (mat.K / mat.kappa) * th**2 * (length / 2 + wobble)
        M += mat.K * th**2 * lam**2 * (length / 2 - wobble)
    return N, M


def build_basis(sys: SlabSystem, mode_count: int) -> EigenBasis:
    """Compute the first mode_count eigen-elements with norms attached."""
    if mode_count < 1:
        raise ValidationError("mode_count must be at least 1")
    pairs = find_eigenvalues(sys, mode_count - 1)
    modes = []
    for pair in pairs:
        cos_b = math.cos(pair.lambda_b * sys.b)
        cos_a = math.cos(pair.lambda_a * sys.a)
        degenerate = pair.n > 0 and (
            abs(cos_b) < DEGENERATE_COS_TOL or abs(cos_a) < DEGENERATE_COS_TOL
        )
        if not degenerate:
            mode = EigenMode(
                pair=pair,
                norm_N=norm_N_closed(sys, pair),
                norm_M=norm_M_closed(sys, pair),
                amp_b=1.0 / cos_b,
                amp_a=1.0 / cos_a,
            )
        else:
            th_b, th_a = _interface_null_vector(sys, pair)
            norm_N, norm_M = _degenerate_norms(sys, pair, th_b, th_a)
            mode = EigenMode(
                pair=pair,
                norm_N=norm_N,
                norm_M=norm_M,
                amp_b=th_b,
                amp_a=th_a,
                degenerate_interface=True,
            )
        modes.append(mode)
    return EigenBasis(
        sys,
        tuple(modes),
        lambda_b=np.array([p.lambda_b for p in pairs]),
        lambda_a=np.array([p.lambda_a for p in pairs]),
        amp_b=np.array([m.amp_b for m in modes]),
        amp_a=np.array([m.amp_a for m in modes]),
    )


def _cos_products(lam: np.ndarray, amp: np.ndarray, length: float, sign: float) -> np.ndarray:
    """amp_m amp_n * integral over [0, length] of cos(l_m s) cos(l_n s) (sign +1)
    or sin(l_m s) sin(l_n s) (sign -1), for every pair of frequencies.

    The product-to-sum identity gives (length/2) [sinc(d) + sign sinc(t)]
    with d, t = (l_m -+ l_n) length/pi; np.sinc covers l_m = l_n and l = 0.
    """
    d = np.subtract.outer(lam, lam) * (length / math.pi)
    t = np.add.outer(lam, lam) * (length / math.pi)
    return np.outer(amp, amp) * (0.5 * length) * (np.sinc(d) + sign * np.sinc(t))


def weighted_inner(basis: EigenBasis, m: int, n: int) -> float:
    """Weighted inner product of modes m and n (K/kappa weights), in closed form."""
    s = basis.sys
    k = [m, n]
    ib = _cos_products(basis.lambda_b[k], basis.amp_b[k], s.b, 1.0)[0, 1]
    ia = _cos_products(basis.lambda_a[k], basis.amp_a[k], s.a, 1.0)[0, 1]
    return float((s.mat_b.K / s.mat_b.kappa) * ib + (s.mat_a.K / s.mat_a.kappa) * ia)


def weighted_gram(basis: EigenBasis, mode_count: int | None = None) -> np.ndarray:
    """Full matrix of weighted inner products, diagonal N_n for eigen-modes."""
    s = basis.sys
    Gb, Ga = slab_grams(basis, mode_count)
    return (s.mat_b.K / s.mat_b.kappa) * Gb + (s.mat_a.K / s.mat_a.kappa) * Ga


def slab_grams(basis: EigenBasis, mode_count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-slab (unweighted) Gram matrices of the eigenfunctions, in closed form."""
    s = basis.sys
    k = slice(len(basis) if mode_count is None else mode_count)
    return (
        _cos_products(basis.lambda_b[k], basis.amp_b[k], s.b, 1.0),
        _cos_products(basis.lambda_a[k], basis.amp_a[k], s.a, 1.0),
    )


def derivative_gram(basis: EigenBasis, mode_count: int | None = None) -> np.ndarray:
    """Matrix of K-weighted inner products of derivatives, diagonal M_n."""
    s = basis.sys
    k = slice(len(basis) if mode_count is None else mode_count)
    lb, la = basis.lambda_b[k], basis.lambda_a[k]
    Gb = _cos_products(lb, basis.amp_b[k] * lb, s.b, -1.0)
    Ga = _cos_products(la, basis.amp_a[k] * la, s.a, -1.0)
    return s.mat_b.K * Gb + s.mat_a.K * Ga
