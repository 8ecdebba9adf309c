"""Fourier coefficient recovery and series synthesis.

Final-time data T(x_j, tf) sampled per slab is matched against the
eigenfunction columns phi_{alpha n}(x_j).  Two recovery routes exist:

* ``recover_coefficients`` solves the per-slab linear systems with
  numpy's SVD-based least squares (exact when square), refusing any
  design matrix whose condition passes CONDITION_LIMIT.  Each slab
  gets its own coefficients; for consistent data the two agree.
* ``project_coefficients`` uses the weighted orthogonality instead,
  C_n = [w_b <T_b, phi_bn> + w_a <T_a, phi_an>] / N_n, and assigns the
  same value to both slabs.

Every guarded solve factors its matrix once.  The condition guard
(``_require_conditioned``) reads the condition from a spectrum already
computed: the singular values that ``lstsq`` returns with a per-slab
solution.  The symmetric Gram matrix of the "projection" policy, which
``solve`` factors, is first bounded in O(k^2) (``_certified_condition``:
Weyl's inequality on its Jacobi-scaled form, with round-off margins).
Only a Gram that this certificate cannot pass goes to ``eigvalsh``, whose
eigenvalue magnitudes the guard then reads, so every verdict and message
is the one ``eigvalsh`` gives.  A factorisation that does not converge is
refused as well, with condition nan.

Synthesis evaluates T(x, t) = sum C_n exp(lambda_bar_n (tf - t)) phi_n(x),
the backward-amplified series; exponents above 700 are refused, and so
is a series that is not finite at some node (``NumericalError``), as
is a recovered coefficient that is not finite.  Both refusals come
with no numpy warning first.

Both steps take their mode matrices phi_{alpha n}(x_j) from
``basis.mode_operator``, which keeps each slab's last one on a grid, so
a recovery and a synthesis on one grid build them once.  A plate slice
(``bilayer2d.slice_basis``) is an ``EigenBasis`` too, and takes the same path.

On a grid that takes the blocked route (``basis.mode_operator``) a mode
matrix is a ``BlockedModes``: the trapezoid Gram, the products P^T W y
and the synthesis P g come from its tables, with no N x k array, and the
trapezoid weights are the exact uniform h (h/2 at the ends) rather than
the differences of the rounded nodes.  "strict-paper" takes its k rows
from the tables.  "least-squares" solves the system of
``BlockedModes.compress``, at most 4 k^2 + B rows with the minimiser
and the singular values of the N x k one, from COMPRESSED_MIN_NODES
nodes; below that it solves on the dense form.  Every other node set
keeps the direct form's array and its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AmplificationOverflowError,
    Grid,
    NodeCountError,
    NumericalError,
    RankDeficientError,
    SampledField,
    ValidationError,
)
from .basis import BlockedModes, EigenBasis, _require_mode_count, mode_operator, slab_matrix

# Condition estimate beyond which a solve is refused.
CONDITION_LIMIT = 1e12

# Per-slab least-squares solves on blocked grids of at least this many nodes
# take ``BlockedModes.compress`` instead of the dense form.  Dense against
# compressed lstsq, median of 200 (one BLAS thread, 2 shared x86-64 CPUs):
# at 2048 nodes 0.30/0.22 ms (12 modes) and about even at 4; at 10^4 nodes
# 1.5-2.0/0.26-0.38 ms (12 modes); at 1024 nodes slower, 0.07/0.09 ms
# (4 modes) and 0.18/0.22 ms (12).
COMPRESSED_MIN_NODES = 2048

# machine epsilon of the doubles the guards read
_EPS = float(np.finfo(float).eps)

# exp() argument ceiling; past this double precision is gone anyway.
EXP_ARG_LIMIT = 700.0

# One slab's mode matrix as ``mode_operator`` gives it: tables on a blocked grid.
ModeMatrix = np.ndarray | BlockedModes

# The coefficient recovery routes of ``recover_coefficients``.
RECOVERY_POLICIES = ("least-squares", "strict-paper", "projection")


@dataclass(frozen=True)
class CoeffVector:
    """Per-slab Fourier coefficients against one basis prefix."""

    basis: EigenBasis
    c_b: np.ndarray
    c_a: np.ndarray

    def __post_init__(self) -> None:
        if len(self.c_b) != len(self.c_a):
            raise ValidationError("c_b and c_a must have equal length")
        if len(self.c_b) > len(self.basis):
            raise ValidationError("more coefficients than basis modes")

    def __len__(self) -> int:
        return len(self.c_b)


def _strict_subsample(n_nodes: int, mode_count: int) -> np.ndarray:
    # evenly spread node indices, endpoints kept, deterministic
    return np.round(np.linspace(0, n_nodes - 1, mode_count)).astype(int)


def _require_conditioned(top: float, bottom: float, what: str) -> None:
    """Refuse a matrix whose condition passes CONDITION_LIMIT (or is not finite).

    ``top`` and ``bottom`` are the largest and smallest of its singular
    values, or of the eigenvalue magnitudes of a symmetric matrix; the
    condition is top/bottom, infinite when bottom is exactly zero.
    """
    top, bottom = float(top), float(bottom)
    cond = top / bottom if bottom > 0.0 else math.inf
    if cond > CONDITION_LIMIT or not math.isfinite(cond):
        raise RankDeficientError(f"{what} numerically rank deficient (condition {cond:.3e})", cond)


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros(len(nodes))
    half = np.diff(nodes) / 2.0
    w[:-1] += half
    w[1:] += half
    return w


def _trapezoid_inner(
    P: ModeMatrix, nodes: np.ndarray, values: np.ndarray, w: float = 1.0
) -> np.ndarray:
    """P^T (w t values), t the trapezoid weights of one slab's nodes.

    A ``BlockedModes`` takes the exact uniform spacing for t and forms
    P^T y from its tables; an array takes t from the nodes' differences.
    """
    if isinstance(P, BlockedModes):
        return P.rmatvec(w * P.trapezoid_weights() * values)
    return P.T @ (w * _trapezoid_weights(nodes) * values)


def _trapezoid_system(
    P: ModeMatrix, nodes: np.ndarray, values: np.ndarray, w: float
) -> tuple[np.ndarray, np.ndarray]:
    """(w P^T diag(t) P, w P^T diag(t) values), with t as in ``_trapezoid_inner``, formed once."""
    if isinstance(P, BlockedModes):
        G = P.trapezoid_gram()
        G *= w
        return G, _trapezoid_inner(P, nodes, values, w)
    W = w * _trapezoid_weights(nodes)
    return P.T @ (W[:, None] * P), P.T @ (W * values)


def _certified_condition(G: np.ndarray) -> float:
    """An upper bound on the condition ``eigvalsh`` finds for symmetric G; inf when none is found.

    With d = sqrt(diag G), S = G/(d d^T) and delta >= ||S - I||_F, Weyl's
    inequality puts the eigenvalues of S in [1 - delta, 1 + delta], so
    cond(G) <= (max d/min d)^2 (1 + delta)/(1 - delta) when delta < 1.
    delta carries 4 k eps for the rounding of S and of its norm, and the
    bound a factor for eigvalsh's own backward error, taken as k eps ||G||.
    O(k^2).  A zero, negative or non-finite diagonal returns inf before any
    arithmetic, so it raises no numpy warning.
    """
    k = len(G)
    diag = G.diagonal()
    lo, hi = float(diag.min()), float(diag.max())
    if not 0.0 < lo <= hi < math.inf:
        return math.inf
    d = np.sqrt(diag)
    S = G / np.multiply.outer(d, d)
    S.flat[:: k + 1] = 0.0
    delta = math.sqrt(float(np.vdot(S, S))) + 4 * k * _EPS
    if not delta < 1.0:
        return math.inf
    bound = hi / lo * (1.0 + delta) / (1.0 - delta)
    slack = k * _EPS * bound
    return bound * (1.0 + k * _EPS) / (1.0 - slack) if slack < 1.0 else math.inf


def _recover_projection(
    basis: EigenBasis, field: SampledField, Pb: ModeMatrix, Pa: ModeMatrix
) -> CoeffVector:
    # weighted least squares across both slabs jointly: solve the
    # discrete Gram system of the material-weighted trapezoid inner
    # product; exact on data lying in the modes of Pb, Pa
    w_b, w_a = basis.sys.weights
    G, r = _trapezoid_system(Pb, field.grid.nodes_b, field.values_b, w_b)
    G_a, r_a = _trapezoid_system(Pa, field.grid.nodes_a, field.values_a, w_a)
    G += G_a
    r += r_a
    if not _certified_condition(G) <= CONDITION_LIMIT:
        magnitudes = np.abs(np.linalg.eigvalsh(G))
        _require_conditioned(magnitudes.max(), magnitudes.min(), "projection Gram matrix")
    c = np.linalg.solve(G, r)
    return CoeffVector(basis=basis, c_b=c, c_a=c.copy())


def _validate_recovery(
    basis: EigenBasis, field: SampledField, mode_count: int, policy: str
) -> None:
    """Policy, then node counts, then the mode range."""
    if policy not in RECOVERY_POLICIES:
        raise ValidationError(f"unknown recovery policy {policy!r}")
    nb, na = len(field.grid.nodes_b), len(field.grid.nodes_a)
    if policy == "projection":
        if nb + na < mode_count:
            raise NodeCountError(f"{nb}+{na} nodes cannot determine {mode_count} modes")
    else:
        for slab, n in (("b", nb), ("a", na)):
            if n < mode_count:
                raise NodeCountError(f"slab {slab}: {n} nodes cannot determine {mode_count} modes")
    if mode_count < 1 or mode_count > len(basis):
        raise ValidationError("mode_count must be in 1..len(basis)")


def _mode_matrices(basis: EigenBasis, grid: Grid, mode_count: int) -> tuple[ModeMatrix, ModeMatrix]:
    """(phi_bn(x_j), phi_an(x_j)) on each slab's nodes of ``grid``, from ``mode_operator``."""
    return (
        mode_operator(basis, grid.nodes_b, "b", mode_count),
        mode_operator(basis, grid.nodes_a, "a", mode_count),
    )


def _recover(
    basis: EigenBasis,
    field: SampledField,
    mode_count: int,
    policy: str,
    Pb: ModeMatrix,
    Pa: ModeMatrix,
) -> CoeffVector:
    """Recovery from the mode matrices of the field's own grid, inputs validated.

    "strict-paper" solves on the rows of the subsampled nodes, which a
    ``BlockedModes`` forms from its tables; "least-squares" solves on the
    compressed system of a ``BlockedModes`` from COMPRESSED_MIN_NODES rows,
    else on the dense matrix.  A factorisation that does not converge is
    refused with condition nan, and so is a coefficient that overflowed:
    quietly, with no numpy warning first.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if policy == "projection":
                coeffs = _recover_projection(basis, field, Pb, Pa)
            else:
                out = []
                for A, values in ((Pb, field.values_b), (Pa, field.values_a)):
                    values = np.asarray(values, float)
                    if policy == "strict-paper":
                        idx = _strict_subsample(A.shape[0], mode_count)
                        rows = A.rows(idx) if isinstance(A, BlockedModes) else A[idx]
                        A, values = rows, values[idx]
                    elif isinstance(A, BlockedModes) and A.shape[0] >= COMPRESSED_MIN_NODES:
                        A, values = A.compress(values)
                    elif isinstance(A, BlockedModes):
                        A = A.dense()
                    c, _, _, sv = np.linalg.lstsq(A, values, rcond=None)
                    _require_conditioned(sv[0], sv[-1], "design matrix")  # in decreasing order
                    out.append(c)
                coeffs = CoeffVector(basis=basis, c_b=out[0], c_a=out[1])
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(f"coefficient recovery failed: {exc}", math.nan) from exc
    if not (np.isfinite(coeffs.c_b).all() and np.isfinite(coeffs.c_a).all()):
        raise NumericalError("the recovered coefficients hold a non-finite value")
    return coeffs


def recover_coefficients(
    basis: EigenBasis,
    field_tf: SampledField,
    mode_count: int,
    policy: str = "least-squares",
) -> CoeffVector:
    """Coefficient recovery from sampled data.

    policy "least-squares" fits each slab separately over every node of
    the field's grid; "strict-paper" subsamples each slab to exactly
    mode_count nodes so the systems are square, mirroring the J_alpha
    prescription; "projection" solves the joint discrete Gram system of
    the material-weighted inner product, which couples the slabs and
    always returns a consistent vector.
    """
    _validate_recovery(basis, field_tf, mode_count, policy)
    Pb, Pa = _mode_matrices(basis, field_tf.grid, mode_count)
    return _recover(basis, field_tf, mode_count, policy, Pb, Pa)


def project_coefficients(basis: EigenBasis, field, mode_count: int) -> CoeffVector:
    """Single coefficient per mode via the weighted orthogonality.

    ``field`` is either a SampledField (trapezoid inner products on its
    own grid) or a pair of callables (f_b, f_a) integrated by the basis
    quadrature.  Both slabs receive the same coefficients.
    """
    _require_mode_count(basis, mode_count)
    w_b, w_a = basis.sys.weights
    if isinstance(field, SampledField):
        Pb, Pa = _mode_matrices(basis, field.grid, mode_count)
        inner_b = _trapezoid_inner(Pb, field.grid.nodes_b, field.values_b)
        inner_a = _trapezoid_inner(Pa, field.grid.nodes_a, field.values_a)
    else:
        inner_b, inner_a = _quadrature_inner(basis, *field, mode_count)
    c = (w_b * inner_b + w_a * inner_a) / basis.norm_N[:mode_count]
    return CoeffVector(basis=basis, c_b=c, c_a=c.copy())


def _quadrature_inner(basis: EigenBasis, f_b, f_a, mode_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-slab unweighted <f_alpha, phi_alpha n> of callables, by the basis quadrature."""
    vb = np.asarray(f_b(basis.quad_x_b), dtype=float)
    va = np.asarray(f_a(basis.quad_x_a), dtype=float)
    Pb = slab_matrix(basis, basis.quad_x_b, "b", mode_count)
    Pa = slab_matrix(basis, basis.quad_x_a, "a", mode_count)
    return Pb.T @ (basis.quad_w_b * vb), Pa.T @ (basis.quad_w_a * va)


def _require_amplifiable(basis: EigenBasis, mode_count: int, t: float) -> None:
    """Refuse lambda_bar_n (tf - t) past EXP_ARG_LIMIT for a mode_count already in 0..len(basis)."""
    # rounding is monotone, so the largest rate gives the largest exponent
    peak = float(basis._peak_rates[mode_count - 1]) * (basis.sys.tf - t) if mode_count else 0.0
    if peak > EXP_ARG_LIMIT:
        raise AmplificationOverflowError(
            f"amplification overflow: max lambda_bar*(tf-t) = {peak:.3f} exceeds {EXP_ARG_LIMIT}"
        )


def amplification_factors(basis: EigenBasis, mode_count: int, t: float) -> np.ndarray:
    """exp(lambda_bar_n (tf - t)) for the first mode_count modes.

    Refused when an exponent passes EXP_ARG_LIMIT.  The bound checkers'
    gain exp(2 N_eps (tf - t)) has its own refusal (``evolve._cutoff_gain``).
    """
    _require_mode_count(basis, mode_count)
    _require_amplifiable(basis, mode_count, t)
    return np.exp(basis.lambda_bar[:mode_count] * (basis.sys.tf - t))


def _series_field(grid: Grid, values_b: np.ndarray, values_a: np.ndarray, t: float) -> SampledField:
    """A series' values on ``grid`` at time t as a field, refused if one is not finite.

    Callers evaluate under ``np.errstate``, so an overflow raises no warning first.
    """
    if not (np.isfinite(values_b).all() and np.isfinite(values_a).all()):
        raise NumericalError(f"the series at t = {t!r} has a non-finite value")
    return SampledField(grid=grid, values_b=values_b, values_a=values_a, time=t)


def synthesize(basis: EigenBasis, coeffs: CoeffVector, t: float, grid: Grid) -> SampledField:
    """The backward-amplified series on a grid at time t, refused if not finite."""
    amp = amplification_factors(basis, len(coeffs), t)
    Pb, Pa = _mode_matrices(basis, grid, len(coeffs))
    with np.errstate(over="ignore", invalid="ignore"):
        values_b, values_a = Pb @ (coeffs.c_b * amp), Pa @ (coeffs.c_a * amp)
    return _series_field(grid, values_b, values_a, t)
