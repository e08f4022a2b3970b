"""Drift and source of the physical Majorana covariance, which carry the second-space generator.

With H = (1/2) sum A[r][c] g_r (i g_c) and each bath channel written as
L = sum_j l_j g_j, where l is the channel's B vector with its even entries
(1-based) times i, the covariance Gamma_jk = i <g_j g_k> (j != k) of the
factor-2 Lindblad dynamics obeys

    dGamma/dt = X Gamma + Gamma X^T + Y,   X = (A - A^T) - 4 Re M,   Y = 8 Im M,

with M = sum over channels of l l^H (third quantization: Prosen, NJP 10,
043026, 2008).  The generator on the doubled (second-space) set of 4N
Majorana modes is fixed by these two real 2N x 2N matrices: in the pair basis
(e_{2m} -/+ i e_{2m+1}) / sqrt(2) its mode matrix is block upper triangular,
with diagonal blocks D(-X)D^-1 and D X D^-1 and off-diagonal block -Y, where
D = diag(1, -i, 1, -i, ...).  So the mode split needs X and Y only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathChannel, MajoranaHamiltonian


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


def build_liouvillian(H: MajoranaHamiltonian, baths: list[BathChannel]) -> LiouvillianCoeffs:
    """X and Y of the covariance dynamics; the channels' l vectors are stacked as rows, so M
    is one matrix product (zero when there is no channel)."""
    N = H.N
    for ch in baths:
        if ch.N != N:
            raise ValueError(f"bath channel is for N={ch.N}, Hamiltonian has N={N}")
    l = np.array([ch.B for ch in baths], dtype=complex).reshape(len(baths), 2 * N)
    l[:, 1::2] *= 1j  # L = sum_j B[2j-1] g_{2j-1} + B[2j] (i g_{2j})
    M = l.T @ l.conj()
    return LiouvillianCoeffs(N=N, X=(H.A - H.A.T) - 4.0 * M.real, Y=8.0 * M.imag)
