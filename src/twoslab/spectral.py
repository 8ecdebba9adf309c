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

Synthesis evaluates T(x, t) = sum C_n exp(lambda_bar_n (tf - t)) phi_n(x),
the backward-amplified series; exponents above 700 are refused.

Both steps evaluate the same mode matrices phi_{alpha n}(x_j) when the
series is synthesized on the data grid.  A reconstruction
(``evolve.cutoff_reconstruct``, ``evolve.forward_solve``) therefore
builds each slab's matrix once (``_recover_on_grid`` returns them with
the coefficients) and hands it to ``_synthesize``; the public wrappers
build their own.  The cores need only ``len(basis)``, ``basis.sys`` and
``basis.lambda_bars()``, so the plate slice (``bilayer2d``) runs them on
its slice matrices too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AmplificationOverflowError,
    Grid,
    RankDeficientError,
    SampledField,
    ValidationError,
)
from .basis import EigenBasis, slab_matrix

# Condition estimate beyond which a solve is refused.
CONDITION_LIMIT = 1e12

# exp() argument ceiling; past this double precision is gone anyway.
EXP_ARG_LIMIT = 700.0


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

    def consistency_gap(self) -> float:
        """Largest |C_bn - C_an|; zero for data from one genuine solution."""
        return float(np.max(np.abs(self.c_b - self.c_a))) if len(self) else 0.0


def _strict_subsample(n_nodes: int, mode_count: int) -> np.ndarray:
    # evenly spread node indices, endpoints kept, deterministic
    return np.round(np.linspace(0, n_nodes - 1, mode_count)).astype(int)


def _require_conditioned(A: np.ndarray, what: str) -> None:
    """Refuse A when its condition estimate passes CONDITION_LIMIT (or is not finite)."""
    cond = float(np.linalg.cond(A))
    if cond > CONDITION_LIMIT or not math.isfinite(cond):
        raise RankDeficientError(f"{what} numerically rank deficient (condition {cond:.3e})", cond)


def _solve_slab(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve of A c = rhs, refused when A is ill conditioned."""
    _require_conditioned(A, "design matrix")
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros(len(nodes))
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _recover_projection(
    basis: EigenBasis, field: SampledField, Pb: np.ndarray, Pa: np.ndarray
) -> CoeffVector:
    # weighted least squares across both slabs jointly: solve the
    # discrete Gram system of the material-weighted trapezoid inner
    # product; exact on data lying in the modes of Pb, Pa
    w_b, w_a = basis.sys.weights
    Wb = w_b * _trapezoid_weights(field.grid.nodes_b)
    Wa = w_a * _trapezoid_weights(field.grid.nodes_a)
    G = Pb.T @ (Wb[:, None] * Pb) + Pa.T @ (Wa[:, None] * Pa)
    r = Pb.T @ (Wb * field.values_b) + Pa.T @ (Wa * field.values_a)
    _require_conditioned(G, "projection Gram matrix")
    c = np.linalg.solve(G, r)
    return CoeffVector(basis=basis, c_b=c, c_a=c.copy())


def _validate_recovery(
    basis: EigenBasis, field: SampledField, mode_count: int, policy: str
) -> None:
    """Policy, then node counts (and the mode range of the per-slab policies)."""
    if policy not in ("least-squares", "strict-paper", "projection"):
        raise ValidationError(f"unknown recovery policy {policy!r}")
    nb, na = len(field.grid.nodes_b), len(field.grid.nodes_a)
    if policy == "projection":
        if nb + na < mode_count:
            raise ValidationError(f"{nb}+{na} nodes cannot determine {mode_count} modes")
        return
    for slab, n in (("b", nb), ("a", na)):
        if n < mode_count:
            raise ValidationError(f"slab {slab}: {n} nodes cannot determine {mode_count} modes")
    if mode_count < 1 or mode_count > len(basis):
        raise ValidationError("mode_count must be in 1..len(basis)")


def _mode_matrices(basis: EigenBasis, grid: Grid, mode_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi_bn(x_j), phi_an(x_j)) on each slab's nodes of ``grid``."""
    return (
        slab_matrix(basis, grid.nodes_b, "b", mode_count),
        slab_matrix(basis, grid.nodes_a, "a", mode_count),
    )


def _recover(
    basis: EigenBasis,
    field: SampledField,
    mode_count: int,
    policy: str,
    Pb: np.ndarray,
    Pa: np.ndarray,
) -> CoeffVector:
    """Recovery from the mode matrices of the field's own grid, inputs validated.

    "strict-paper" solves on the rows of the subsampled nodes.
    """
    if policy == "projection":
        return _recover_projection(basis, field, Pb, Pa)
    out = []
    for A, values in ((Pb, field.values_b), (Pa, field.values_a)):
        values = np.asarray(values, float)
        if policy == "strict-paper":
            idx = _strict_subsample(len(A), mode_count)
            A, values = A[idx], values[idx]
        out.append(_solve_slab(A, values))
    return CoeffVector(basis=basis, c_b=out[0], c_a=out[1])


def _recover_on_grid(
    basis: EigenBasis, field: SampledField, mode_count: int, policy: str
) -> tuple[CoeffVector, np.ndarray, np.ndarray]:
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
    w_b, w_a = basis.sys.weights
    if isinstance(field, SampledField):
        Pb, Pa = _mode_matrices(basis, field.grid, mode_count)
        inner_b = Pb.T @ (_trapezoid_weights(field.grid.nodes_b) * field.values_b)
        inner_a = Pa.T @ (_trapezoid_weights(field.grid.nodes_a) * field.values_a)
    else:
        inner_b, inner_a = _quadrature_inner(basis, *field, mode_count)
    N = np.array([basis.modes[n].norm_N for n in range(mode_count)])
    c = (w_b * inner_b + w_a * inner_a) / N
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

    Refused when an exponent passes EXP_ARG_LIMIT; this is the one
    amplification guard of the package.
    """
    arg = basis.lambda_bars()[:mode_count] * (basis.sys.tf - t)
    peak = float(np.max(arg, initial=0.0))
    if peak > EXP_ARG_LIMIT:
        raise AmplificationOverflowError(
            f"amplification overflow: max lambda_bar*(tf-t) = {peak:.3f} exceeds {EXP_ARG_LIMIT}"
        )
    return np.exp(arg)


def _synthesize(
    basis: EigenBasis, coeffs: CoeffVector, t: float, grid: Grid, Pb: np.ndarray, Pa: np.ndarray
) -> SampledField:
    """The amplified series at time t from the mode matrices of ``grid``."""
    amp = amplification_factors(basis, len(coeffs), t)
    return SampledField(
        grid=grid,
        values_b=Pb @ (coeffs.c_b * amp),
        values_a=Pa @ (coeffs.c_a * amp),
        time=t,
    )


def synthesize(basis: EigenBasis, coeffs: CoeffVector, t: float, grid: Grid) -> SampledField:
    """Evaluate the backward-amplified series on a grid at time t."""
    Pb, Pa = _mode_matrices(basis, grid, len(coeffs))
    return _synthesize(basis, coeffs, t, grid, Pb, Pa)
