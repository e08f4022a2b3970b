"""Mode spectrum of the generator, stable projector, and transfer stack.

Second-space Majorana modes evolve linearly under a 4N x 4N mode matrix
whose pair-basis blocks are D(-X)D^-1, -Y and D X D^-1 (see `liouvillian`).
Its rates are +-eig(X), and the stationary state is assembled from the
branch with positive real parts.  In the pair basis the projector onto that
branch is [[I, -Q], [0, 0]], and its one nontrivial block is fixed by the
stationary covariance Gamma, the solution of X Gamma + Gamma X^T = -Y:
Q = D (i Gamma P) D^-1 with P = diag(1, -1, 1, -1, ...).  The 2N x 4N stack
matrix R is read off Q, so no 4N matrix is built or decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonUniqueNess, SingularEigenbasis
from .liouvillian import LiouvillianCoeffs

EPS_Z_DEFAULT = 1e-8


@dataclass(frozen=True)
class ModeSpectrum:
    """The 4N mode rates z = +-eig(X), the stable modes first, and the stationary covariance."""

    z: np.ndarray
    gamma: np.ndarray


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
    """Mode rates and stationary covariance from one real eigendecomposition X = W diag(lam) W^-1.

    The rates z = +-lam are sorted by (Re z descending, Im z ascending), so
    the stable set, the modes with Re z above eps_z scaled by the largest
    |Re z|, comes first.  Raises NonUniqueNess when the stable set does not
    have size 2N or any real part sits inside the threshold band, and
    SingularEigenbasis when W is ill conditioned (condition number above
    1/eps_z).  The Lyapunov equation is then diagonal in W's basis:
    Gamma = W G W^T with G_jk = -(W^-1 Y W^-T)_jk / (lam_j + lam_k).
    """
    lam, W = np.linalg.eig(L.X)
    z = np.concatenate((-lam, lam))
    z = z[np.lexsort((z.imag, -z.real))]

    scale = float(np.abs(z.real).max(initial=0.0))
    thr = eps_z * scale
    plus = np.flatnonzero(z.real > thr)
    if len(plus) != 2 * L.N or np.any(np.abs(z.real) <= thr):
        n_dead = int(np.sum(np.abs(z.real) <= thr))
        raise NonUniqueNess(
            f"stationary state may be non-unique: {len(plus)} stable modes "
            f"(expected {2 * L.N}), {n_dead} eigenvalues with |Re z| <= {thr:.3e}"
        )

    cond = np.linalg.cond(W)
    if not np.isfinite(cond) or cond > 1.0 / eps_z:
        raise SingularEigenbasis(
            f"eigenvector matrix condition {cond:.3e} exceeds {1.0 / eps_z:.3e}"
        )
    Winv = np.linalg.inv(W)
    G = -(Winv @ L.Y @ Winv.T) / (lam[:, None] + lam[None, :])
    gamma = (W @ G @ W.T).real
    return ModeSpectrum(z=z, gamma=(gamma - gamma.T) / 2.0)


def stable_projector(spec: ModeSpectrum) -> np.ndarray:
    """Q = D (i Gamma P) D^-1, antisymmetrized: the stable projector is [[I, -Q], [0, 0]] in the pair basis."""
    n = len(spec.gamma)
    d = np.tile([1.0, -1j], n // 2)
    p = np.tile([1.0, -1.0], n // 2)
    Q = d[:, None] * (1j * spec.gamma * p) / d
    return (Q - Q.T) / 2.0


def build_stack(Q: np.ndarray, N: int) -> TransferStack:
    """Stack rows (1/2) [(I - Q) on the odd columns | i (I + Q) on the even ones], 1-based."""
    if Q.shape != (2 * N, 2 * N):
        raise ValueError(f"projector block must be {2 * N}x{2 * N}, got {Q.shape}")
    eye = np.eye(2 * N)
    R = np.empty((2 * N, 4 * N), dtype=complex)
    R[:, 0::2] = (eye - Q) / 2.0
    R[:, 1::2] = 0.5j * (eye + Q)
    return TransferStack(N=N, R=R)


def orthogonality_residual(stack: TransferStack) -> float:
    """Largest |sum_l R[j][l] R[k][l]| over all row pairs, including j = k."""
    G = stack.R @ stack.R.T
    return float(np.abs(G).max())
