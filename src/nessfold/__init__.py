"""Stationary states of dissipative quadratic fermion chains.

The construction turns the Lindblad problem into a quadratic generator over
doubled fermionic modes, splits the modes spectrally, folds the resulting
operator stack into next-neighbor rotations, and rebuilds the stationary
state as a matrix-product state whose coefficient ratios give observables.
"""

from .exceptions import (
    ClosureViolation,
    NessfoldError,
    NonUniqueNess,
    SingularEigenbasis,
    UnphysicalReadout,
    VacuumVanishes,
)
from .folding import FoldResult, fold
from .model import (
    BathChannel,
    EndBathParams,
    KitaevParams,
    MajoranaHamiltonian,
    build_kitaev,
    end_baths,
    single_site_bath,
)
from .pipeline import NessSolution, log_linear_fit, solve, solve_end_bath
from .spectral import (
    LiouvillianCoeffs,
    ModeSpectrum,
    TransferStack,
    build_liouvillian,
    build_stack,
    decompose,
    orthogonality_residual,
    stable_projector,
)
from .tns import ObservableReport, TensorState, normalize_vacuum, product_state

__version__ = "0.1.0"

__all__ = [
    "BathChannel",
    "ClosureViolation",
    "EndBathParams",
    "FoldResult",
    "KitaevParams",
    "LiouvillianCoeffs",
    "MajoranaHamiltonian",
    "ModeSpectrum",
    "NessSolution",
    "NessfoldError",
    "NonUniqueNess",
    "ObservableReport",
    "SingularEigenbasis",
    "TensorState",
    "TransferStack",
    "UnphysicalReadout",
    "VacuumVanishes",
    "build_kitaev",
    "build_liouvillian",
    "build_stack",
    "decompose",
    "end_baths",
    "fold",
    "log_linear_fit",
    "normalize_vacuum",
    "orthogonality_residual",
    "product_state",
    "single_site_bath",
    "solve",
    "solve_end_bath",
    "stable_projector",
]
