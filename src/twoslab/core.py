"""Shared types for the two-slab composite heat problem.

The composite occupies [-b, 0] (material "b") and [0, a] (material "a"),
in perfect thermal contact at x = 0 and insulated at the outer faces.
Everything downstream (eigen-elements, spectral recovery, regularized
backward evolution) is phrased in terms of the small value objects here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NodeCountError(ValidationError):
    """Raised when a grid has too few nodes for the modes a recovery asks for."""


class NumericalError(RuntimeError):
    """Raised when a computation is abandoned for numerical reasons."""


class RankDeficientError(NumericalError):
    """Design matrix is numerically rank deficient.

    Carries the offending condition-number estimate in ``condition``.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class AmplificationOverflowError(NumericalError):
    """Backward amplification exponent too large for double precision."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _require_positive(value: float, name: str) -> None:
    _require(math.isfinite(value), f"{name} must be finite")
    _require(value > 0, f"{name} must be positive")


@dataclass(frozen=True)
class Material:
    """Homogeneous material: conductivity K and diffusivity kappa.

    The volumetric heat capacity rho*c is K/kappa by definition.  A few
    published experiment values are only reproducible with an inverted
    ratio, so ``rho_c_override`` lets the harness force a specific value
    without touching the conduction physics (which only sees K and kappa).
    """

    K: float
    kappa: float
    rho_c_override: float | None = None

    def __post_init__(self) -> None:
        _require_positive(self.K, "K")
        _require_positive(self.kappa, "kappa")
        if self.rho_c_override is not None:
            _require_positive(self.rho_c_override, "rho_c_override")

    @property
    def rho_c(self) -> float:
        if self.rho_c_override is not None:
            return self.rho_c_override
        return self.K / self.kappa


@dataclass(frozen=True)
class SlabSystem:
    """Two-slab geometry, materials and time window.

    ``b`` is the thickness of the left slab [-b, 0], ``a`` of the right
    slab [0, a].  ``c`` is the transverse depth of the plate and is only
    consulted by the 2D bilayer routines.  Temperatures are recovered on
    [t0, tf] from data measured at tf.
    """

    b: float
    a: float
    mat_b: Material
    mat_a: Material
    t0: float = 0.0
    tf: float = 0.1
    c: float | None = None

    def __post_init__(self) -> None:
        validate_system(self)

    @property
    def window(self) -> float:
        return self.tf - self.t0

    @property
    def weights(self) -> tuple[float, float]:
        """Inner-product slab weights (K_b/kappa_b, K_a/kappa_a); rho_c_override never enters."""
        return self.mat_b.K / self.mat_b.kappa, self.mat_a.K / self.mat_a.kappa

    def kappa_ratio_root(self) -> float:
        """sqrt(kappa_b / kappa_a), the fixed ratio lambda_a / lambda_b."""
        return math.sqrt(self.mat_b.kappa / self.mat_a.kappa)


def validate_system(sys: SlabSystem) -> SlabSystem:
    """Check the geometric and temporal preconditions, return the system."""
    _require_positive(sys.a, "a")
    _require_positive(sys.b, "b")
    if sys.c is not None:
        _require_positive(sys.c, "c")
    _require(math.isfinite(sys.t0) and math.isfinite(sys.tf), "t0 and tf must be finite")
    _require(sys.tf > sys.t0, "empty time window")
    return sys


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr, which is made read-only too (a copy of it, if it is a view).

    numpy refuses to make a view of a read-only array writable again, so
    the data can change only through arr itself, which the caller keeps
    private.
    """
    if arr.base is not None:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr.view()


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only view of a private float copy of arr; the caller's array stays writable."""
    return _frozen(np.array(arr, dtype=float))


@dataclass(frozen=True)
class Grid:
    """Measurement nodes, one strictly increasing array per slab.

    nodes_b lives in [-b, 0], nodes_a in [0, a]; both may include the
    interface node x = 0, which therefore can appear twice in a composite
    traversal (once per slab, values may differ for per-slab recoveries).
    """

    nodes_b: np.ndarray
    nodes_a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes_b", _readonly(self.nodes_b))
        object.__setattr__(self, "nodes_a", _readonly(self.nodes_a))
        for name, nodes in (("nodes_b", self.nodes_b), ("nodes_a", self.nodes_a)):
            _require(nodes.ndim == 1 and nodes.size >= 1, f"{name} must be a non-empty 1d array")
            if nodes.size > 1:
                _require(bool(np.all(np.diff(nodes) > 0)), f"{name} must be strictly increasing")
        _require(bool(np.all(self.nodes_b <= 0.0)), "nodes_b must lie in [-b, 0]")
        _require(bool(np.all(self.nodes_a >= 0.0)), "nodes_a must lie in [0, a]")


def uniform_grid(sys: SlabSystem, points_per_slab: int) -> Grid:
    """Equispaced nodes per slab, endpoints and interface included.

    points_per_slab counts nodes, so the spacing is b/(n-1) on the left
    and a/(n-1) on the right.  A single-node grid degenerates to the slab
    midpoints (used by the 2D slice solver when only one mode survives).
    """
    _require(points_per_slab >= 1, "points_per_slab must be at least 1")
    if points_per_slab == 1:
        return Grid(np.array([-sys.b / 2.0]), np.array([sys.a / 2.0]))
    return Grid(
        np.linspace(-sys.b, 0.0, points_per_slab),
        np.linspace(0.0, sys.a, points_per_slab),
    )


@dataclass(frozen=True)
class SampledField:
    """Temperature samples on a Grid at a single time."""

    grid: Grid
    values_b: np.ndarray
    values_a: np.ndarray
    time: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values_b", _readonly(self.values_b))
        object.__setattr__(self, "values_a", _readonly(self.values_a))
        _require(
            self.values_b.shape == self.grid.nodes_b.shape,
            "values_b must match nodes_b in shape",
        )
        _require(
            self.values_a.shape == self.grid.nodes_a.shape,
            "values_a must match nodes_a in shape",
        )


def trapezoid_norm(field: SampledField) -> tuple[float, float]:
    """Per-slab discrete L2 norms of a sampled field (trapezoid rule)."""
    nb = math.sqrt(max(0.0, float(np.trapezoid(field.values_b**2, field.grid.nodes_b))))
    na = math.sqrt(max(0.0, float(np.trapezoid(field.values_a**2, field.grid.nodes_a))))
    return nb, na


def cutoff_threshold(epsilon: float, beta: float, gamma: float, tf: float) -> float:
    """Cut-off level N_eps = beta * ln(eps^-gamma) / tf for noise level eps."""
    _require(0 < epsilon < 1, "epsilon must lie in (0, 1)")
    _require_positive(beta, "beta")
    _require_positive(gamma, "gamma")
    _require_positive(tf, "tf")
    return beta * gamma * math.log(1.0 / epsilon) / tf


@dataclass(frozen=True)
class RegParams:
    """Cut-off regularization parameters.

    n_eps is the admissibility threshold on the decay rates lambda_bar;
    use ``RegParams.from_rule`` to derive it from (epsilon, beta, gamma, tf).
    """

    epsilon: float
    beta: float
    gamma: float
    n_eps: float

    def __post_init__(self) -> None:
        _require(self.epsilon >= 0, "epsilon must be non-negative")
        _require(self.n_eps >= 0, "n_eps must be non-negative")

    @classmethod
    def from_rule(cls, epsilon: float, beta: float, gamma: float, tf: float) -> "RegParams":
        return cls(epsilon, beta, gamma, cutoff_threshold(epsilon, beta, gamma, tf))
