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
from .eigensolver import EigenValuePair, eigen_f, find_eigenvalues, newton_demo
from .basis import EigenBasis, EigenMode, build_basis, norm_M_closed, norm_N_closed
from .spectral import (
    CoeffVector,
    amplification_factors,
    project_coefficients,
    recover_coefficients,
    synthesize,
)
from .evolve import (
    AdmissibleSet,
    admissible_set,
    cutoff_reconstruct,
    forward_solve,
    instability_lower_bound,
    noise_gap_bound,
    nonhomogeneous_solve,
    source_compatibility,
    stability_bound,
)
from .bilayer2d import (
    Basis2D,
    Mode2D,
    eigen_f_2d,
    find_modes_2d,
    nu_a_of,
    reconstruct_2d_slice,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "AmplificationOverflowError",
    "Basis2D",
    "CoeffVector",
    "EigenBasis",
    "EigenMode",
    "EigenValuePair",
    "Grid",
    "Material",
    "Mode2D",
    "NumericalError",
    "RankDeficientError",
    "RegParams",
    "SampledField",
    "SlabSystem",
    "ValidationError",
    "admissible_set",
    "amplification_factors",
    "build_basis",
    "cutoff_reconstruct",
    "cutoff_threshold",
    "eigen_f",
    "eigen_f_2d",
    "find_eigenvalues",
    "find_modes_2d",
    "forward_solve",
    "instability_lower_bound",
    "newton_demo",
    "noise_gap_bound",
    "nonhomogeneous_solve",
    "norm_M_closed",
    "norm_N_closed",
    "nu_a_of",
    "project_coefficients",
    "recover_coefficients",
    "reconstruct_2d_slice",
    "source_compatibility",
    "stability_bound",
    "synthesize",
    "trapezoid_norm",
    "uniform_grid",
    "__version__",
]
