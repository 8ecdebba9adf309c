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
class DesignMatrix:
    """Collocation matrix for one slab with its condition estimate."""

    slab: str
    nodes: np.ndarray
    matrix: np.ndarray
    condition: float


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


def design_matrix(basis: EigenBasis, nodes: np.ndarray, slab: str, mode_count: int) -> DesignMatrix:
    """Build phi_{alpha n}(x_j) for one slab and estimate its condition."""
    if mode_count < 1 or mode_count > len(basis):
        raise ValidationError("mode_count must be in 1..len(basis)")
    A = slab_matrix(basis, nodes, slab, mode_count)
    cond = float(np.linalg.cond(A))
    return DesignMatrix(slab=slab, nodes=np.asarray(nodes, float), matrix=A, condition=cond)


def _strict_subsample(n_nodes: int, mode_count: int) -> np.ndarray:
    # evenly spread node indices, endpoints kept, deterministic
    return np.round(np.linspace(0, n_nodes - 1, mode_count)).astype(int)


def _solve_slab(A: np.ndarray, rhs: np.ndarray, cond: float) -> np.ndarray:
    """Least-squares solve of A c = rhs, refused when cond exceeds CONDITION_LIMIT."""
    if cond > CONDITION_LIMIT or not math.isfinite(cond):
        raise RankDeficientError(
            f"design matrix numerically rank deficient (condition {cond:.3e})", cond
        )
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros(len(nodes))
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _recover_projection(basis: EigenBasis, field: SampledField, mode_count: int) -> CoeffVector:
    # weighted least squares across both slabs jointly: solve the
    # discrete Gram system of the material-weighted trapezoid inner
    # product; exact on data lying in the first mode_count modes
    s = basis.sys
    nb, na = field.grid.nodes_b, field.grid.nodes_a
    if len(nb) + len(na) < mode_count:
        raise ValidationError(
            f"{len(nb)}+{len(na)} nodes cannot determine {mode_count} modes"
        )
    Pb = slab_matrix(basis, nb, "b", mode_count)
    Pa = slab_matrix(basis, na, "a", mode_count)
    Wb = (s.mat_b.K / s.mat_b.kappa) * _trapezoid_weights(nb)
    Wa = (s.mat_a.K / s.mat_a.kappa) * _trapezoid_weights(na)
    G = Pb.T @ (Wb[:, None] * Pb) + Pa.T @ (Wa[:, None] * Pa)
    r = Pb.T @ (Wb * field.values_b) + Pa.T @ (Wa * field.values_a)
    cond = float(np.linalg.cond(G))
    if cond > CONDITION_LIMIT or not math.isfinite(cond):
        raise RankDeficientError(
            f"projection Gram matrix numerically rank deficient (condition {cond:.3e})",
            cond,
        )
    c = np.linalg.solve(G, r)
    return CoeffVector(basis=basis, c_b=c, c_a=c.copy())


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
    if policy not in ("least-squares", "strict-paper", "projection"):
        raise ValidationError(f"unknown recovery policy {policy!r}")
    if policy == "projection":
        return _recover_projection(basis, field_tf, mode_count)
    out = []
    for slab, nodes, values in (
        ("b", field_tf.grid.nodes_b, field_tf.values_b),
        ("a", field_tf.grid.nodes_a, field_tf.values_a),
    ):
        if len(nodes) < mode_count:
            raise ValidationError(
                f"slab {slab}: {len(nodes)} nodes cannot determine {mode_count} modes"
            )
        if policy == "strict-paper":
            idx = _strict_subsample(len(nodes), mode_count)
            nodes, values = nodes[idx], values[idx]
        dm = design_matrix(basis, nodes, slab, mode_count)
        out.append(_solve_slab(dm.matrix, np.asarray(values, float), dm.condition))
    return CoeffVector(basis=basis, c_b=out[0], c_a=out[1])


def project_coefficients(basis: EigenBasis, field, mode_count: int) -> CoeffVector:
    """Single coefficient per mode via the weighted orthogonality.

    ``field`` is either a SampledField (trapezoid inner products on its
    own grid) or a pair of callables (f_b, f_a) integrated by the basis
    quadrature.  Both slabs receive the same coefficients.
    """
    s = basis.sys
    w_b = s.mat_b.K / s.mat_b.kappa
    w_a = s.mat_a.K / s.mat_a.kappa
    if isinstance(field, SampledField):
        xb, vb = field.grid.nodes_b, field.values_b
        xa, va = field.grid.nodes_a, field.values_a
        Pb = slab_matrix(basis, xb, "b", mode_count)
        Pa = slab_matrix(basis, xa, "a", mode_count)
        inner_b = Pb.T @ (_trapezoid_weights(xb) * vb)
        inner_a = Pa.T @ (_trapezoid_weights(xa) * va)
    else:
        f_b, f_a = field
        vb = np.asarray(f_b(basis.quad_x_b), dtype=float)
        va = np.asarray(f_a(basis.quad_x_a), dtype=float)
        Pb = slab_matrix(basis, basis.quad_x_b, "b", mode_count)
        Pa = slab_matrix(basis, basis.quad_x_a, "a", mode_count)
        inner_b = Pb.T @ (basis.quad_w_b * vb)
        inner_a = Pa.T @ (basis.quad_w_a * va)
    N = np.array([basis.modes[n].norm_N for n in range(mode_count)])
    c = (w_b * inner_b + w_a * inner_a) / N
    return CoeffVector(basis=basis, c_b=c, c_a=c.copy())


def growth_factors(lambda_bars: np.ndarray, span: float) -> np.ndarray:
    """exp(lambda_bar * span), refused when an exponent passes EXP_ARG_LIMIT."""
    arg = np.asarray(lambda_bars, dtype=float) * span
    peak = float(np.max(arg, initial=0.0))
    if peak > EXP_ARG_LIMIT:
        raise AmplificationOverflowError(
            f"amplification overflow: max lambda_bar*(tf-t) = {peak:.3f} exceeds {EXP_ARG_LIMIT}"
        )
    return np.exp(arg)


def amplification_factors(basis: EigenBasis, mode_count: int, t: float) -> np.ndarray:
    """exp(lambda_bar_n (tf - t)) for the first mode_count modes."""
    return growth_factors(basis.lambda_bars()[:mode_count], basis.sys.tf - t)


def synthesize(basis: EigenBasis, coeffs: CoeffVector, t: float, grid: Grid) -> SampledField:
    """Evaluate the backward-amplified series on a grid at time t."""
    count = len(coeffs)
    amp = amplification_factors(basis, count, t)
    Pb = slab_matrix(basis, grid.nodes_b, "b", count)
    Pa = slab_matrix(basis, grid.nodes_a, "a", count)
    return SampledField(
        grid=grid,
        values_b=Pb @ (coeffs.c_b * amp),
        values_a=Pa @ (coeffs.c_a * amp),
        time=t,
    )
