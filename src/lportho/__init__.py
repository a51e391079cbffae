"""Banach-space orthogonality, L1 Fourier-energy accounting, and circulant
preconditioning of Toeplitz systems.

The package has three numerical layers plus a command-line front end:

- ``banach_geometry``: weak inner products, angles, and Pythagorean defects
  for discrete functions under the lp duality map.
- ``signal_decomposition``: L1 Fourier-energy bookkeeping on real FFTs and
  a spectral iterative-filtering decomposer whose output conserves that
  energy.
- ``toeplitz_preconditioning``: entrywise-lp-optimal circulant approximants
  of banded Toeplitz matrices and a preconditioned conjugate gradient solver
  built on FFT kernels.
"""

__version__ = "0.1.0"

from .banach_geometry import (
    DiscreteFunction,
    GeometryResult,
    PExponent,
    angle,
    dualize,
    is_orthogonal,
    pair_geometry,
    pythagorean_defect,
    weak_inner_product,
)
from .signal_decomposition import (
    Decomposition,
    EnergyReport,
    Signal,
    check_energy_conservation,
    fif_decompose,
    l1_fourier_energy,
    pairwise_l1_angles,
)
from .toeplitz_preconditioning import (
    CirculantMatrix,
    SolveReport,
    ToeplitzOperator,
    ToeplitzSymbol,
    build_toeplitz,
    circulant_solve,
    circulant_spectrum,
    lp_circulant_minimizer,
    lp_matrix_norm,
    pcg_solve,
    preconditioned_spectrum_diagnostic,
    select_p_tilde,
    strang_type_correction,
    toeplitz_matvec,
)

__all__ = [
    "__version__",
    "DiscreteFunction",
    "PExponent",
    "GeometryResult",
    "dualize",
    "weak_inner_product",
    "pythagorean_defect",
    "angle",
    "is_orthogonal",
    "pair_geometry",
    "Signal",
    "Decomposition",
    "EnergyReport",
    "l1_fourier_energy",
    "check_energy_conservation",
    "fif_decompose",
    "pairwise_l1_angles",
    "ToeplitzSymbol",
    "ToeplitzOperator",
    "CirculantMatrix",
    "SolveReport",
    "build_toeplitz",
    "lp_matrix_norm",
    "lp_circulant_minimizer",
    "circulant_spectrum",
    "strang_type_correction",
    "toeplitz_matvec",
    "circulant_solve",
    "pcg_solve",
    "select_p_tilde",
    "preconditioned_spectrum_diagnostic",
]
