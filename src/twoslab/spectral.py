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

Both steps evaluate the same mode matrices phi_{alpha n}(x_j) when the
series is synthesized on the data grid.  A reconstruction
(``evolve.cutoff_reconstruct``, ``evolve.forward_solve``) therefore
builds each slab's matrix once (``_recover_on_grid`` returns them with
the coefficients) and hands it to ``_synthesize``; the public wrappers
build their own.  A plate slice (``bilayer2d.slice_basis``) keeps its
frequencies and amplitudes under the rod basis's names, so it runs
through these same mode matrices, recovery and synthesis.

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
from .basis import BlockedModes, EigenBasis, mode_operator, slab_matrix

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


def _require_conditioned(spectrum: np.ndarray, what: str) -> None:
    """Refuse a matrix whose condition passes CONDITION_LIMIT (or is not finite).

    ``spectrum`` holds its singular values, or the eigenvalue magnitudes
    of a symmetric matrix; the condition is their max/min, infinite when
    the smallest is exactly zero.
    """
    top, bottom = float(spectrum.max()), float(spectrum.min())
    cond = top / bottom if bottom > 0.0 else math.inf
    if cond > CONDITION_LIMIT or not math.isfinite(cond):
        raise RankDeficientError(f"{what} numerically rank deficient (condition {cond:.3e})", cond)


def _solve_slab(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve of A c = rhs, refused when A is ill conditioned."""
    c, _, _, s = np.linalg.lstsq(A, rhs, rcond=None)
    _require_conditioned(s, "design matrix")
    return c


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros(len(nodes))
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
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


def _trapezoid_gram(P: ModeMatrix, nodes: np.ndarray, w: float) -> np.ndarray:
    """w P^T diag(t) P, with t as in ``_trapezoid_inner``."""
    if isinstance(P, BlockedModes):
        G = P.trapezoid_gram()
        G *= w
        return G
    W = w * _trapezoid_weights(nodes)
    return P.T @ (W[:, None] * P)


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
    nodes_b, nodes_a = field.grid.nodes_b, field.grid.nodes_a
    G = _trapezoid_gram(Pb, nodes_b, w_b)
    G += _trapezoid_gram(Pa, nodes_a, w_a)
    r = _trapezoid_inner(Pb, nodes_b, field.values_b, w_b) + _trapezoid_inner(
        Pa, nodes_a, field.values_a, w_a
    )
    if not _certified_condition(G) <= CONDITION_LIMIT:
        _require_conditioned(np.abs(np.linalg.eigvalsh(G)), "projection Gram matrix")
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
                    out.append(_solve_slab(A, values))
                coeffs = CoeffVector(basis=basis, c_b=out[0], c_a=out[1])
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(f"coefficient recovery failed: {exc}", math.nan) from exc
    if not (np.isfinite(coeffs.c_b).all() and np.isfinite(coeffs.c_a).all()):
        raise NumericalError("the recovered coefficients hold a non-finite value")
    return coeffs


def _recover_on_grid(
    basis: EigenBasis, field: SampledField, mode_count: int, policy: str
) -> tuple[CoeffVector, ModeMatrix, ModeMatrix]:
    """Validated recovery, returned with the mode matrices of the field's grid."""
    _validate_recovery(basis, field, mode_count, policy)
    Pb, Pa = _mode_matrices(basis, field.grid, mode_count)
    return _recover(basis, field, mode_count, policy, Pb, Pa), Pb, Pa


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
    return _recover_on_grid(basis, field_tf, mode_count, policy)[0]


def project_coefficients(basis: EigenBasis, field, mode_count: int) -> CoeffVector:
    """Single coefficient per mode via the weighted orthogonality.

    ``field`` is either a SampledField (trapezoid inner products on its
    own grid) or a pair of callables (f_b, f_a) integrated by the basis
    quadrature.  Both slabs receive the same coefficients.
    """
    if mode_count > len(basis):
        raise ValidationError(f"{mode_count} modes requested from a basis of {len(basis)}")
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


def amplification_factors(basis: EigenBasis, mode_count: int, t: float) -> np.ndarray:
    """exp(lambda_bar_n (tf - t)) for the first mode_count modes.

    Refused when an exponent passes EXP_ARG_LIMIT.  The bound checkers'
    gain exp(2 N_eps (tf - t)) has its own refusal (``evolve._cutoff_gain``).
    """
    arg = basis.lambda_bars()[:mode_count] * (basis.sys.tf - t)
    peak = float(np.max(arg, initial=0.0))
    if peak > EXP_ARG_LIMIT:
        raise AmplificationOverflowError(
            f"amplification overflow: max lambda_bar*(tf-t) = {peak:.3f} exceeds {EXP_ARG_LIMIT}"
        )
    return np.exp(arg)


def _series_field(grid: Grid, values_b: np.ndarray, values_a: np.ndarray, t: float) -> SampledField:
    """A series' values on ``grid`` at time t as a field, refused if one is not finite.

    Each caller evaluates its series under ``np.errstate(over="ignore",
    invalid="ignore")``, so an overflow reaches this refusal with no
    numpy warning first.
    """
    if not (np.isfinite(values_b).all() and np.isfinite(values_a).all()):
        raise NumericalError(f"the series at t = {t!r} has a non-finite value")
    return SampledField(grid=grid, values_b=values_b, values_a=values_a, time=t)


def _synthesize(
    basis: EigenBasis, coeffs: CoeffVector, t: float, grid: Grid, Pb: ModeMatrix, Pa: ModeMatrix,
    amp: np.ndarray | None = None,
) -> SampledField:
    """The amplified series at time t from the mode matrices of ``grid``, refused if not finite.

    ``amp``, when given, is the caller's ``amplification_factors(basis, len(coeffs), t)``.
    """
    amp = amplification_factors(basis, len(coeffs), t) if amp is None else amp
    with np.errstate(over="ignore", invalid="ignore"):
        values_b, values_a = Pb @ (coeffs.c_b * amp), Pa @ (coeffs.c_a * amp)
    return _series_field(grid, values_b, values_a, t)


def synthesize(basis: EigenBasis, coeffs: CoeffVector, t: float, grid: Grid) -> SampledField:
    """Evaluate the backward-amplified series on a grid at time t."""
    Pb, Pa = _mode_matrices(basis, grid, len(coeffs))
    return _synthesize(basis, coeffs, t, grid, Pb, Pa)
