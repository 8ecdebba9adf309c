"""Eigenfunctions of the two-slab problem and their inner products.

Each eigen-element n is a pair of cosines,

    phi_b(x) = A_b cos(lambda_b (x + b))   on [-b, 0],
    phi_a(x) = A_a cos(lambda_a (x - a))   on [0, a],

normalized so both slabs take the value 1 at the interface whenever
cos(lambda_b b) and cos(lambda_a a) stay away from zero.  When either
cosine (numerically) vanishes the interface value cannot be pinned to 1;
those modes take the unit normal of the interface flux row.  Norms and
Gram matrices are closed forms; a basis builds its Gauss-Legendre rule
only when a callable has to be integrated against the modes.

``build_basis`` evaluates the amplitudes and degenerate flags of all
modes as array expressions over the frequencies, and the basis keeps
them as columns.  Everything else is derived from the columns when first
read, so a basis pays nothing for what nothing reads.  N_n and M_n are one
``_mode_norms`` call: every mode's norms, the constant and the degenerate
ones included, are each layer's amp^2 (L/2) (1 +- sinc(2 lambda L/pi))
summed over the layers, so N_n is the weighted diagonal of
``slab_grams``.  ``modes`` is a record array whose fields are the columns
and that call's two results.  Squares of frequencies use
``np.float_power(x, 2.0)``, which rounds as Python's ``x**2`` does, so
every row equals its per-mode scalar form bit for bit.

Mode matrices amp_n cos(lambda_n s_j) all come from ``mode_operator``,
which keeps its last operator per slab on nodes no caller can write
(every ``Grid``'s: a read-only view of a read-only array), so a recovery
and a synthesis on one grid share it.  On nodes that are exactly
``np.linspace(nodes[0], nodes[-1], N)``, with N at least
BLOCKED_MIN_NODES, it returns a ``BlockedModes``: row j = qB + r
(B = ceil(sqrt(N))) is, by angle addition, a row-wise Kronecker product of
a table of block starts lambda_n s_qB and one of offsets lambda_n r h.
Both tables come from one ``np.tan`` call on the half angles, about
N/B + B tangents per mode instead of N cosines: with t = tan(theta/2),
cos theta = (1 - t^2)/(1 + t^2) and sin theta = 2t/(1 + t^2), within
2 eps of the cosine and sine, with bits that follow numpy's ``tan``
dispatch as the roots' do.  Every block starts from its own node, so no
error accumulates.  The operator gives the synthesis P g, the products
P^T y and the trapezoid Gram (with the exact uniform spacing) from its
tables, in O((N/B + B) k^2) for the Gram, without the N x k matrix.  It
also compresses a least-squares problem P c = y, by orthogonal factors
of the two tables, into one of at most 4 k^2 + B rows with the same
minimiser and singular values.  Any other node set takes the direct
form, an array evaluated in place.  ``slab_matrix`` is the dense form of
either.

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

from .core import SlabSystem, ValidationError, _frozen
from .eigensolver import _root_records, find_eigenvalues

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


def _interface_amplitudes(sys: SlabSystem, lam_b, lam_a):
    """Slab amplitudes (amp_b, amp_a) and degenerate flags of the modes with these frequencies.

    1/cos pins both slabs to 1 at the interface.  Where cos(lambda_b b) or
    cos(lambda_a a) (numerically) vanishes, the mode is degenerate; that
    cosine's sine is +-1, so the unit normal of the nonzero flux row
    (K_b lambda_b sin(lambda_b b), K_a lambda_a sin(lambda_a a)) is used.
    """
    cos_b, cos_a = np.cos(lam_b * sys.b), np.cos(lam_a * sys.a)
    degenerate = (np.abs(cos_b) < DEGENERATE_COS_TOL) | (np.abs(cos_a) < DEGENERATE_COS_TOL)
    amp_b, amp_a = 1.0 / cos_b, 1.0 / cos_a  # the cosine of a double is never 0
    if degenerate.any():
        lb, la = lam_b[degenerate], lam_a[degenerate]
        theta_b = sys.mat_a.K * la * np.sin(la * sys.a)
        theta_a = -sys.mat_b.K * lb * np.sin(lb * sys.b)
        # the component that cannot vanish is positive: theta_b if cos(lambda_b b) vanishes
        lead = np.where(np.abs(cos_b[degenerate]) < DEGENERATE_COS_TOL, theta_b, theta_a)
        norm = np.copysign(np.hypot(theta_b, theta_a), lead)
        amp_b[degenerate], amp_a[degenerate] = theta_b / norm, theta_a / norm
    return amp_b, amp_a, degenerate


@dataclass(frozen=True)
class EigenBasis:
    """Ordered eigen-elements of one system: a rod's, or a plate's (``bilayer2d``).

    Frequencies, decay rates, amplitudes and degenerate flags are kept as
    arrays, one entry per mode; a plate adds ``m``, ``n`` and ``mu`` (None
    on a rod).  Everything the package computes reads these columns.  The
    record array ``modes``, the norms N_n (``norm_N``) and the
    Gauss-Legendre rule for callables (``quad_x_b``, ``quad_w_b``,
    ``quad_x_a``, ``quad_w_a``) are derived from the columns on first
    access and cached, read-only: a plate ``find_modes_2d`` keeps is
    shared with every caller.
    """

    sys: SlabSystem
    lambda_b: np.ndarray
    lambda_a: np.ndarray
    lambda_bar: np.ndarray
    amp_b: np.ndarray
    amp_a: np.ndarray
    degenerate: np.ndarray
    m: np.ndarray | None = None
    n: np.ndarray | None = None
    mu: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.lambda_bar)

    def lambda_bars(self) -> np.ndarray:
        return self.lambda_bar

    def phi(self, n: int, x):
        """Eigenfunction n's values; the x >= 0 branch uses the right slab."""
        xs = np.asarray(x, dtype=float)
        left = self.amp_b[n] * np.cos(self.lambda_b[n] * (xs + self.sys.b))
        right = self.amp_a[n] * np.cos(self.lambda_a[n] * (xs - self.sys.a))
        out = np.where(xs < 0.0, left, right)
        return float(out) if np.isscalar(x) else out

    @cached_property
    def _peak_rates(self) -> np.ndarray:
        # entry k - 1 is max(lambda_bar[:k], initial=0.0), the rate the amplification guard reads
        return np.maximum.accumulate(np.maximum(self.lambda_bar, 0.0))

    @cached_property
    def _kept(self) -> dict:
        return {}  # slab -> (nodes, mode_count, operator): ``mode_operator``'s last build

    @cached_property
    def _norms(self) -> tuple[np.ndarray, np.ndarray]:
        N, M = _mode_norms(self.sys, self.lambda_b, self.lambda_a, self.amp_b, self.amp_a)
        return _frozen(N), _frozen(M)

    @property
    def norm_N(self) -> np.ndarray:
        return self._norms[0]

    @cached_property
    def modes(self) -> np.recarray:
        """One row per mode, copied from the columns (and, on a rod, the norms).

        A rod's rows are (pair, norm_N, norm_M, amp_b, amp_a,
        degenerate_interface), ``pair`` being ``find_eigenvalues``' row; a
        plate's are (m, n, mu, nu_b, nu_a, lambda_bar, amp_b, amp_a,
        degenerate_interface).
        """
        rest = (self.amp_b, self.amp_a, self.degenerate)
        if self.m is None:
            pair = _root_records(self.lambda_b, self.lambda_a, self.lambda_bar)
            return _frozen(np.rec.fromarrays(
                (pair, *self._norms, *rest),
                names="pair,norm_N,norm_M,amp_b,amp_a,degenerate_interface",
            ))
        return _frozen(np.rec.fromarrays(
            (self.m, self.n, self.mu, self.lambda_b, self.lambda_a, self.lambda_bar, *rest),
            names="m,n,mu,nu_b,nu_a,lambda_bar,amp_b,amp_a,degenerate_interface",
        ))

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # panels by the largest frequency: a plate's columns are in lambda_bar order
        s = self.sys
        xb, wb = _composite_rule(-s.b, 0.0, float(self.lambda_b.max(initial=1.0)))
        xa, wa = _composite_rule(0.0, s.a, float(self.lambda_a.max(initial=1.0)))
        return _frozen(xb), _frozen(wb), _frozen(xa), _frozen(wa)

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


# Equispaced node sets of at least this many nodes take the blocked
# evaluation.  Measured against the direct form at 4 to 51 modes (2 shared
# x86-64 CPUs): at 256 nodes the blocked form is 1.2-2.1x faster from 12
# modes up; at 4 modes it stays slower up to about 1000 nodes, by at most
# 0.011 ms a call; at 64 nodes it is slower up to 40 modes.
BLOCKED_MIN_NODES = 256


class BlockedModes:
    """amp_n cos(lam_n s_j) on equispaced s, held as two small tables.

    Row j = qB + r with B = ceil(sqrt(len(s))): cos(lam (s_qB + r h)) is
    cos(lam s_qB) cos(lam r h) - sin(lam s_qB) sin(lam r h).  So row j is
    ``starts[0, q] * offsets[0, r] + starts[1, q] * offsets[1, r]``, with
    ``starts`` = (amp cos, -amp sin)(lam s_qB), 2 x N/B x k, and
    ``offsets`` = (cos, sin)(lam r h), 2 x B x k: a row-wise Kronecker
    product.  Each block starts from its own node, so no error
    accumulates along j.  Both tables come from one ``np.tan`` call on the
    half angles, t = tan(theta/2), as cos = (1 - t^2)/(1 + t^2) and
    sin = 2t/(1 + t^2): one tangent costs at most what a cosine does (a
    quarter of it where numpy dispatches AVX-512) and replaces a cosine
    and a sine.  Each entry is within 2 eps (times |amp| in ``starts``) of
    the cosine or sine of the same angle; its bits follow numpy's ``tan``
    dispatch.  Synthesis, the products with data, the trapezoid Gram and
    the compressed least-squares system are read from the tables; only
    ``dense`` forms the N x k matrix.
    """

    def __init__(self, s: np.ndarray, lam: np.ndarray, amp: np.ndarray) -> None:
        n = s.size
        B = math.isqrt(n - 1) + 1
        self.shape = (n, lam.size)
        self.h = (s[-1] - s[0]) / (n - 1)
        # t = tan(theta/2) for the angles lam s_qB and lam r h; halving is exact
        half = np.concatenate((s[::B], np.arange(B) * self.h))
        half *= 0.5
        t = np.multiply.outer(half, lam)
        np.tan(t, out=t)
        # cos = (1 - t^2) / (1 + t^2) and sin = 2 t / (1 + t^2), in place
        tables = np.empty((2,) + t.shape)
        cos, sin = tables
        np.multiply(t, t, out=sin)
        np.subtract(1.0, sin, out=cos)
        sin += 1.0
        cos /= sin
        np.divide(t, sin, out=sin)
        sin += sin
        starts = half.size - B
        self.starts, self.offsets = tables[:, :starts], tables[:, starts:]
        self.starts[0] *= amp
        self.starts[1] *= -amp

    def dense(self) -> np.ndarray:
        """The N x k matrix itself."""
        n, k = self.shape
        out = np.multiply(self.starts[0, :, None, :], self.offsets[0])
        out += self.starts[1, :, None, :] * self.offsets[1]
        return out.reshape(-1, k)[:n]

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows idx of the matrix, each rounded as ``dense`` rounds it."""
        q, r = np.divmod(idx, self.offsets.shape[1])
        both = self.starts[:, q] * self.offsets[:, r]
        return both[0] + both[1]

    def compress(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least-squares problem P c = y as (C, z), in at most 4 k^2 + B rows.

        The blocks before the last are (S kron O) E, with S = [starts[0] |
        starts[1]] and O = [offsets[0] | offsets[1]], and E adding column
        a k + n of both into column n.  With the thin QRs S = Q_S R_S and
        O = Q_O R_O, they are (Q_S kron Q_O) R, where R[(i, j), n] is the
        sum over a of R_S[i, a k + n] R_O[j, a k + n].  C is R stacked on
        the last block's rows (``rows``), and z is vec(Q_S^T Y Q_O), Y the
        data of the blocks before the last in rows of B, stacked on the
        last block's data.  Q_S kron Q_O has orthonormal columns, so C c = z
        has the minimiser and the singular values of P c = y.
        """
        n, k = self.shape
        B = self.offsets.shape[1]
        last = (n - 1) // B
        Q_S, R_S = np.linalg.qr(np.hstack(self.starts[:, :last]))
        Q_O, R_O = np.linalg.qr(np.hstack(self.offsets))
        R = R_S[:, None, :k] * R_O[:, :k]
        R += R_S[:, None, k:] * R_O[:, k:]
        Y = y[: last * B].reshape(last, B)
        C = np.vstack((R.reshape(-1, k), self.rows(np.arange(last * B, n))))
        return C, np.concatenate(((Q_S.T @ Y @ Q_O).ravel(), y[last * B :]))

    def __matmul__(self, g: np.ndarray) -> np.ndarray:
        """The synthesis P g: block q of it is the sum of (starts[:, q] g) offsets^T."""
        both = (self.starts * g) @ self.offsets.transpose(0, 2, 1)
        return (both[0] + both[1]).ravel()[: self.shape[0]]

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """P^T y: the sum over blocks of starts[:, q] (Y offsets)[:, q], Y = y in rows of B."""
        Q, B = self.starts.shape[1], self.offsets.shape[1]
        Y = np.zeros(Q * B)
        Y[: self.shape[0]] = y
        return (self.starts * (Y.reshape(Q, B) @ self.offsets)).sum(axis=(0, 1))

    def trapezoid_weights(self) -> np.ndarray:
        """The trapezoid rule of the exact uniform spacing: h, and h/2 at the ends."""
        w = np.full(self.shape[0], self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def trapezoid_gram(self) -> np.ndarray:
        """P^T diag(trapezoid_weights) P from the tables, in O((N/B + B) k^2).

        Over the blocks before the last, entry (m, n) is the sum over a, b
        of (starts[a]^T starts[b])_mn (offsets[a]^T offsets[b])_mn, with
        a, b = 0, 1: elementwise products of k x k Grams of the tables.
        The last block's rows are added directly, and half of each end
        row is taken off; row 0 is starts[0, 0], as its offset is 0.  The
        result is exactly symmetric.
        """
        n = self.shape[0]
        B = self.offsets.shape[1]
        last = (n - 1) // B
        S0, S1 = self.starts[:, :last]
        O0, O1 = self.offsets
        G = S0.T @ S0
        G *= O0.T @ O0
        part = S1.T @ S1
        part *= O1.T @ O1
        G += part
        part = S0.T @ S1
        part *= O0.T @ O1
        G += part + part.T
        tail = self.rows(np.arange(last * B, n))
        ends = np.array((self.starts[0, 0], tail[-1]))
        G += tail.T @ tail
        G -= 0.5 * (ends.T @ ends)
        G *= self.h
        return G


def _require_mode_count(basis: EigenBasis, mode_count: int) -> None:
    """Refuse a mode count outside 0..len(basis), which a slice would quietly cut or wrap."""
    if not 0 <= mode_count <= len(basis):
        raise ValidationError(f"{mode_count} modes requested, not in 0..{len(basis)}")


def mode_operator(
    basis: EigenBasis, nodes: np.ndarray, slab: str, mode_count: int
) -> np.ndarray | BlockedModes:
    """phi_{alpha n}(x_j), rows nodes, columns modes 0..mode_count-1, by the node set's route.

    Nodes that are exactly ``np.linspace(nodes[0], nodes[-1], len)``, with
    at least BLOCKED_MIN_NODES of them, give a ``BlockedModes``; any other
    node set gives the direct form amp_n cos(lam_n s_j) as an array,
    evaluated in place.  The last operator built per slab on a read-only
    view of a read-only array (a ``Grid``'s nodes) is kept, read-only, and
    returned again for the same view and count; other node arrays,
    read-only owners among them, are evaluated afresh.
    """
    kept = basis._kept.get(slab)
    if kept is not None and kept[0] is nodes and kept[1] == mode_count:
        return kept[2]
    _require_mode_count(basis, mode_count)
    x = np.asarray(nodes, dtype=float).ravel()
    k = slice(mode_count)
    if slab == "b":
        s, lam, amp = x + basis.sys.b, basis.lambda_b[k], basis.amp_b[k]
    elif slab == "a":
        s, lam, amp = x - basis.sys.a, basis.lambda_a[k], basis.amp_a[k]
    else:
        raise ValueError("slab must be 'b' or 'a'")
    n = x.size
    if n >= BLOCKED_MIN_NODES and np.array_equal(x, np.linspace(x[0], x[-1], n)):
        P = BlockedModes(s, lam, amp)
    else:
        P = np.multiply.outer(s, lam)
        np.cos(P, out=P)
        P *= amp
    # a Grid's nodes view a read-only owner (``core._frozen``), and no view of
    # that owner can be made writable; ravel() collapses x's base to the owner
    owner = x.base
    frozen = isinstance(owner, np.ndarray) and not owner.flags.writeable
    if frozen and owner is getattr(nodes, "base", None):
        if isinstance(P, np.ndarray):
            P.setflags(write=False)
        basis._kept[slab] = (nodes, mode_count, P)
    return P


def slab_matrix(basis: EigenBasis, nodes: np.ndarray, slab: str, mode_count: int) -> np.ndarray:
    """Matrix of phi_{alpha n}(x_j), rows nodes, columns modes 0..mode_count-1.

    The dense form of ``mode_operator``: the blocked tables' product on
    equispaced grids from BLOCKED_MIN_NODES up, the direct form elsewhere.
    """
    P = mode_operator(basis, nodes, slab, mode_count)
    return P.dense() if isinstance(P, BlockedModes) else P


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
    """Compute the first mode_count eigen-elements as columns.

    Amplitudes of all modes, the degenerate-interface modes' closed form
    included, are array expressions over the frequencies.
    """
    if mode_count < 1:
        raise ValidationError("mode_count must be at least 1")
    roots = find_eigenvalues(sys, mode_count - 1)
    lam_b, lam_a, lam_bar = (roots[name].copy() for name in ("lambda_b", "lambda_a", "lambda_bar"))
    amp_b, amp_a, degenerate = _interface_amplitudes(sys, lam_b, lam_a)
    return EigenBasis(sys, lam_b, lam_a, lam_bar, amp_b, amp_a, degenerate)


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
    _require_mode_count(basis, mode_count or 0)  # None: every mode
    k = slice(mode_count)
    return (
        _cos_products(basis.lambda_b[k], basis.amp_b[k], s.b),
        _cos_products(basis.lambda_a[k], basis.amp_a[k], s.a),
    )
