"""Mode spectrum of the generator, stable projector, and transfer stack.

Second-space Majorana modes evolve linearly, d(gamma~_l)/dt = -4 sum_j
Lmat[l][j] gamma~_j.  The eigendecomposition of -4 Lmat splits the modes into
decaying and growing branches; the stationary state is assembled from the
branch with positive real parts through the spectral projector S and the
2N x 4N stack matrix R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonUniqueNess, SingularEigenbasis
from .liouvillian import LiouvillianCoeffs

EPS_Z_DEFAULT = 1e-8


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenvalues z, right eigenvectors Z (columns) and Z^{-1}; the stable modes come first."""

    z: np.ndarray
    Z: np.ndarray
    Zinv: np.ndarray


@dataclass(frozen=True)
class TransferStack:
    """Rows are the coefficients of the stationary-state building operators f~_j."""

    N: int
    R: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=complex)
        if R.shape != (2 * self.N, 4 * self.N):
            raise ValueError(f"stack must be {2 * self.N}x{4 * self.N}, got {R.shape}")
        R.setflags(write=False)
        object.__setattr__(self, "R", R)


def decompose(L: LiouvillianCoeffs, eps_z: float = EPS_Z_DEFAULT) -> ModeSpectrum:
    """Full eigendecomposition of -4 Lmat with a fixed deterministic ordering.

    Eigenvalues are sorted by (Re z descending, Im z ascending), so the stable
    set, the modes with Re z above eps_z scaled by the largest |Re z|, comes
    first.  Raises NonUniqueNess when the stable set does not have size 2N or
    any real part sits inside the threshold band, and SingularEigenbasis when
    the eigenvector matrix is ill conditioned (condition number above 1/eps_z).
    """
    M = -4.0 * L.Lmat
    z, Z = np.linalg.eig(M)
    order = np.lexsort((z.imag, -z.real))
    z = z[order]
    Z = Z[:, order]

    scale = float(np.abs(z.real).max(initial=0.0))
    thr = eps_z * scale
    plus = np.flatnonzero(z.real > thr)
    if len(plus) != 2 * L.N or np.any(np.abs(z.real) <= thr):
        n_dead = int(np.sum(np.abs(z.real) <= thr))
        raise NonUniqueNess(
            f"stationary state may be non-unique: {len(plus)} stable modes "
            f"(expected {2 * L.N}), {n_dead} eigenvalues with |Re z| <= {thr:.3e}"
        )

    cond = np.linalg.cond(Z)
    if not np.isfinite(cond) or cond > 1.0 / eps_z:
        raise SingularEigenbasis(
            f"eigenvector matrix condition {cond:.3e} exceeds {1.0 / eps_z:.3e}"
        )
    Zinv = np.linalg.solve(Z, np.eye(Z.shape[0], dtype=complex))
    return ModeSpectrum(z=z, Z=Z, Zinv=Zinv)


def stable_projector(spec: ModeSpectrum) -> np.ndarray:
    """Spectral projector onto the stable branch, the first 2N modes: S = Z[:, :2N] Zinv[:2N, :]."""
    n = len(spec.z) // 2
    return spec.Z[:, :n] @ spec.Zinv[:n, :]


def build_stack(S: np.ndarray, N: int) -> TransferStack:
    """Stack rows R[j] = (S[2j-1] + i S[2j]) / 2 for j = 1..2N."""
    if S.shape != (4 * N, 4 * N):
        raise ValueError(f"projector must be {4 * N}x{4 * N}, got {S.shape}")
    R = (S[0::2, :] + 1j * S[1::2, :]) / 2.0
    return TransferStack(N=N, R=R)


def orthogonality_residual(stack: TransferStack) -> float:
    """Largest |sum_l R[j][l] R[k][l]| over all row pairs, including j = k."""
    G = stack.R @ stack.R.T
    return float(np.abs(G).max())
