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
from .liouvillian import LiouvillianCoeffs, build_liouvillian, scalar_eigenvalue
from .model import (
    BathChannel,
    EndBathParams,
    KitaevParams,
    MajoranaHamiltonian,
    build_kitaev,
    end_baths,
    single_site_bath,
)
from .observables import (
    ObservableReport,
    end_to_end_correlation,
    log_linear_fit,
    occupancy_profile,
    site_occupancy,
)
from .pipeline import NessSolution, solve, solve_end_bath
from .spectral import (
    ModeSpectrum,
    TransferStack,
    build_stack,
    decompose,
    orthogonality_residual,
    stable_projector,
)
from .tns import TensorState, normalize_vacuum, product_state

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
    "end_to_end_correlation",
    "fold",
    "log_linear_fit",
    "normalize_vacuum",
    "occupancy_profile",
    "orthogonality_residual",
    "product_state",
    "scalar_eigenvalue",
    "single_site_bath",
    "site_occupancy",
    "solve",
    "solve_end_bath",
    "stable_projector",
]
