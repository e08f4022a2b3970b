"""Covariance front end: drift and source, mode split, stable projector and transfer stack.

With H = (1/2) sum A[r][c] g_r (i g_c) and each bath channel written as
L = sum_j l_j g_j, where l is the channel's B vector with its even entries
(1-based) times i, the covariance Gamma_jk = i <g_j g_k> (j != k) of the
factor-2 Lindblad dynamics obeys

    dGamma/dt = X Gamma + Gamma X^T + Y,   X = (A - A^T) - 4 Re M,   Y = 8 Im M,

with M = sum over channels of l l^H (third quantization: Prosen, NJP 10,
043026, 2008).  These two real 2N x 2N matrices fix the generator on the
doubled (second-space) set of 4N Majorana modes.  In the pair basis
(e_{2m} -/+ i e_{2m+1}) / sqrt(2), with D = diag(1, -i, 1, -i, ...) and
P = diag(1, -1, 1, -1, ...), its mode matrix is block upper triangular, with
diagonal blocks D(-X)D^-1 and D X D^-1 and off-diagonal block -Y.  So its
rates are +-eig(X), and the stationary state is assembled from the branch
with positive real parts.  The projector onto that branch is
[[I, -Q], [0, 0]] in the pair basis; its one nontrivial block is fixed by
the stationary covariance Gamma, the solution of X Gamma + Gamma X^T = -Y,
as Q = D (i Gamma P) D^-1.  That is one real gauge: with S = diag(s) and
s = (+1, -1, -1, +1) repeating (gauge_signs, 0-based), D = diag(i^j s_j) and
P D^-1 = D, so Q = i^(j+k+1) Q' entry for entry, with the real block
Q' = S Gamma S (stable_projector).  Q' is the stack's only stored form
(TransferStack): the fold clears its real view W = (1/2) [(I - Q') | (I + Q')],
and the physical stack R = (1/2) [(I - Q) | i (I + Q)] is read off it through
one exact phase table (gauge_phase), so no 4N matrix is built or decomposed
and the replayed state stays in the real gauge (tns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonUniqueNess, SingularEigenbasis
from .model import BathChannel, MajoranaHamiltonian

EPS_Z_DEFAULT = 1e-8


@dataclass(frozen=True)
class LiouvillianCoeffs:
    """The covariance drift X and source Y, real 2N x 2N; Y is antisymmetric."""

    N: int
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        n = 2 * self.N
        for name in ("X", "Y"):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ModeSpectrum:
    """The 4N mode rates z = +-eig(X), the stable modes first, and the stationary covariance."""

    z: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class TransferStack:
    """The stack whose rows are the building operators f~_j, stored only as its real block Q' = S Gamma S."""

    N: int
    Qp: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.Qp):
            raise ValueError(f"Q' must be real, got {np.asarray(self.Qp).dtype}")
        Qp = np.array(self.Qp, dtype=np.float64)
        if Qp.shape != (2 * self.N,) * 2:
            raise ValueError(f"Q' must be {2 * self.N}x{2 * self.N}, got {Qp.shape}")
        if not np.isfinite(Qp).all():
            raise ValueError(f"Q' must be finite, got {Qp[~np.isfinite(Qp)][0]}")
        Qp.setflags(write=False)
        object.__setattr__(self, "Qp", Qp)

    @property
    def W(self) -> np.ndarray:
        """The real stack the fold clears in place, (1/2) [(I - Q') | (I + Q')], built anew each time."""
        return self._stack(self.Qp, 0.5)

    @property
    def R(self) -> np.ndarray:
        """The physical stack (1/2) [(I - Q) | i (I + Q)], Q = i^(j+k+1) Q'."""
        return self._stack(gauge_phase(2 * self.N) * self.Qp, 0.5j)

    def _stack(self, Q: np.ndarray, even: complex) -> np.ndarray:
        """(I - Q)/2 on the odd columns and even (I + Q) on the even ones, 1-based."""
        eye = np.eye(2 * self.N)
        return np.dstack(((eye - Q) / 2.0, even * (eye + Q))).reshape(2 * self.N, 4 * self.N)


def build_liouvillian(H: MajoranaHamiltonian, baths: list[BathChannel]) -> LiouvillianCoeffs:
    """X and Y of the covariance dynamics; the channels' l vectors are stacked as rows, so M
    is one matrix product (zero when there is no channel)."""
    N = H.N
    for ch in baths:
        if ch.N != N:
            raise ValueError(f"bath channel is for N={ch.N}, Hamiltonian has N={N}")
    l = np.array([ch.B for ch in baths], dtype=complex).reshape(len(baths), 2 * N)
    l[:, 1::2] *= 1j
    M = l.T @ l.conj()
    return LiouvillianCoeffs(N=N, X=(H.A - H.A.T) - 4.0 * M.real, Y=8.0 * M.imag)


def decompose(L: LiouvillianCoeffs, eps_z: float = EPS_Z_DEFAULT) -> ModeSpectrum:
    """Mode rates and stationary covariance from one real eigendecomposition X = W diag(lam) W^-1.

    The rates z = +-lam are sorted by (Re z descending, Im z ascending), so
    the stable set, the modes with Re z above eps_z scaled by the largest
    |Re z|, comes first.  Raises NonUniqueNess when any real part sits inside
    that threshold band (otherwise one of each pair +-lam is stable, so the
    stable set has size 2N), and SingularEigenbasis when W is ill conditioned
    (condition number above 1/eps_z).  The Lyapunov equation is then diagonal
    in W's basis: Gamma = W G W^T with G_jk = -(W^-1 Y W^-T)_jk / (lam_j + lam_k),
    and a sum lam_j + lam_k beyond the float range raises NonUniqueNess too.
    """
    lam, W = np.linalg.eig(L.X)
    z = np.concatenate((-lam, lam))
    z = z[np.lexsort((z.imag, -z.real))]

    thr = eps_z * float(np.abs(z.real).max(initial=0.0))
    n_dead = int(np.sum(np.abs(z.real) <= thr))
    if n_dead:
        raise NonUniqueNess(
            f"stationary state may be non-unique: {int(np.sum(z.real > thr))} stable modes "
            f"(expected {2 * L.N}), {n_dead} eigenvalues with |Re z| <= {thr:.3e}"
        )

    cond = np.linalg.cond(W)
    if not np.isfinite(cond) or cond > 1.0 / eps_z:
        raise SingularEigenbasis(
            f"eigenvector matrix condition {cond:.3e} exceeds {1.0 / eps_z:.3e}"
        )
    with np.errstate(over="ignore"):
        rates = lam[:, None] + lam[None, :]
    if not np.isfinite(rates).all():
        raise NonUniqueNess(f"Lyapunov step overflows: largest |lam| {float(np.abs(lam).max()):.3e}")
    Winv = np.linalg.inv(W)
    G = -(Winv @ L.Y @ Winv.T) / rates
    gamma = (W @ G @ W.T).real
    return ModeSpectrum(z=z, gamma=(gamma - gamma.T) / 2.0)


def gaussian_report(gamma: np.ndarray) -> tuple:
    """(eec, occupancy) read off a covariance, 0-based: eec = 2|Gamma[1, 2N-2] + Gamma[0, 2N-1]|,
    0.0 on a lone site, and site j's occupancy (1 + Gamma[2j-2, 2j-1])/2 for 1-based j.  It reads
    both routes: the solve's stationary covariance (ModeSpectrum.gamma) and the replayed state's
    (tns.covariance), which build_report prints."""
    n2 = len(gamma)
    eec = 2.0 * abs(gamma[1, n2 - 2] + gamma[0, n2 - 1]) if n2 >= 4 else 0.0
    return float(eec), (1.0 + np.diag(gamma[0::2, 1::2])) / 2.0


def gauge_signs(n: int) -> np.ndarray:
    """s = (+1, -1, -1, +1) repeating over n Majoranas, 0-based: the real gauge's S = diag(s)."""
    return np.array([1.0, -1.0, -1.0, 1.0])[np.arange(n) % 4]


def gauge_phase(n: int) -> np.ndarray:
    """The n x n table i^(j+k+1), 0-based, taken exactly from (1, i, -1, -i)."""
    return np.array([1, 1j, -1, -1j])[np.add.outer(np.arange(n), np.arange(1, n + 1)) % 4]


def stable_projector(spec: ModeSpectrum) -> np.ndarray:
    """Q' = S Gamma S, real and antisymmetric as Gamma is: the stable projector's nontrivial
    block D (i Gamma P) D^-1 with its exact phases i^(j+k+1) taken out."""
    s = gauge_signs(len(spec.gamma))
    return s[:, None] * spec.gamma * s


def build_stack(Qp: np.ndarray, N: int) -> TransferStack:
    """The transfer stack of the real-gauge block Q'."""
    return TransferStack(N=N, Qp=Qp)


def orthogonality_residual(stack: TransferStack) -> float:
    """Largest |sum_l R[j][l] R[k][l]| over all row pairs, including j = k."""
    R = stack.R
    return float(np.abs(R @ R.T).max())

