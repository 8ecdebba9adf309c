"""Backward heat conduction in a two-slab composite.

Eigen-element computation for perfect thermal contact, Fourier
coefficient recovery from sampled data, and cut-off regularized
time reversal, with the matching bilayer-plate extension.
"""

from .core import (
    AmplificationOverflowError,
    Grid,
    Material,
    NumericalError,
    RankDeficientError,
    RegParams,
    SampledField,
    SlabSystem,
    ValidationError,
    cutoff_threshold,
    trapezoid_norm,
    uniform_grid,
)
from .eigensolver import find_eigenvalues
from .basis import EigenBasis, build_basis
from .spectral import (
    CoeffVector,
    amplification_factors,
    project_coefficients,
    recover_coefficients,
    synthesize,
)
from .evolve import (
    cutoff_reconstruct,
    forward_solve,
    instability_lower_bound,
    noise_gap_bound,
    nonhomogeneous_solve,
    retained_modes,
    source_compatibility,
    stability_bound,
)
from .bilayer2d import (
    find_modes_2d,
    nu_a_of,
    reconstruct_2d_slice,
)

__version__ = "0.1.0"

__all__ = [
    "AmplificationOverflowError",
    "CoeffVector",
    "EigenBasis",
    "Grid",
    "Material",
    "NumericalError",
    "RankDeficientError",
    "RegParams",
    "SampledField",
    "SlabSystem",
    "ValidationError",
    "amplification_factors",
    "build_basis",
    "cutoff_reconstruct",
    "cutoff_threshold",
    "find_eigenvalues",
    "find_modes_2d",
    "forward_solve",
    "instability_lower_bound",
    "noise_gap_bound",
    "nonhomogeneous_solve",
    "nu_a_of",
    "project_coefficients",
    "recover_coefficients",
    "reconstruct_2d_slice",
    "retained_modes",
    "source_compatibility",
    "stability_bound",
    "synthesize",
    "trapezoid_norm",
    "uniform_grid",
    "__version__",
]
