"""Second-space generator as an antisymmetric quadratic form over 4N Majorana modes.

The Lindblad generator, rewritten on the doubled (second-space) Majorana set
gamma~_1..gamma~_4N, is

    L~ = sum_{j,k} Lmat[j][k] gamma~_j gamma~_k + Lscalar/2,

with Lmat antisymmetric and zero on the diagonal.  Lscalar is the eigenvalue of
the totally occupied second-space state and is never positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathChannel, MajoranaHamiltonian


@dataclass(frozen=True)
class LiouvillianCoeffs:
    """Antisymmetrized coefficient matrix and the scalar eigenvalue."""

    N: int
    Lmat: np.ndarray
    Lscalar: float

    def __post_init__(self):
        n = 4 * self.N
        Lmat = np.array(self.Lmat, dtype=complex)
        if Lmat.shape != (n, n):
            raise ValueError(f"Lmat must be {n}x{n}, got {Lmat.shape}")
        Lmat.setflags(write=False)
        object.__setattr__(self, "Lmat", Lmat)
        object.__setattr__(self, "Lscalar", float(self.Lscalar))


def scalar_eigenvalue(baths: list[BathChannel]) -> float:
    """Eigenvalue of the totally occupied state: -4 sum_n sum_j B_j^(n)^2."""
    return -4.0 * sum(float(np.dot(ch.B, ch.B)) for ch in baths)


def build_liouvillian(H: MajoranaHamiltonian, baths: list[BathChannel]) -> LiouvillianCoeffs:
    """Accumulate the quadratic coefficient families and antisymmetrize.

    Raw coefficients are collected as the expansion dictates: the unitary
    part places (1/2) A[2j-1][2k] at positions (4k, 4j-3) and (4j-2, 4k-1);
    each bath channel contributes six quadratic families with real or
    imaginary prefactors.  The expansion's four other bath families, -B B^T
    terms at (4j-r, 4k-r), are symmetric and are left out, since the
    antisymmetrization L'[j][k] = (L[j][k] - L[k][j]) / 2 cancels them.  That
    step is valid because the Majorana products anticommute, and it leaves a
    zero diagonal.
    """
    N = H.N
    for ch in baths:
        if ch.N != N:
            raise ValueError(f"bath channel is for N={ch.N}, Hamiltonian has N={N}")
    raw = np.zeros((4 * N, 4 * N), dtype=complex)

    # Unitary part.  A_oe[j, k] = A[2j-1][2k] in 1-based Majorana indexing.
    A_oe = H.A[0::2, 1::2]
    raw[3::4, 0::4] += A_oe.T / 2.0   # (4k, 4j-3)
    raw[1::4, 2::4] += A_oe / 2.0     # (4j-2, 4k-1)

    # Bath part: six families per channel, summed over all site pairs (j, k).
    for ch in baths:
        bo = ch.B[0::2]  # multiplies gamma_{2j-1}
        be = ch.B[1::2]  # multiplies i gamma_{2j}
        oo = np.outer(bo, bo)
        oe = np.outer(bo, be)
        eo = np.outer(be, bo)
        ee = np.outer(be, be)
        raw[0::4, 3::4] += 2j * oe        # (4j-3, 4k)
        raw[1::4, 2::4] += 2j * oe        # (4j-2, 4k-1)
        raw[1::4, 0::4] += 2j * oo        # (4j-2, 4k-3)
        raw[3::4, 2::4] += 2j * ee        # (4j,   4k-1)
        raw[1::4, 3::4] += 2.0 * oe       # (4j-2, 4k)
        raw[2::4, 0::4] += 2.0 * eo       # (4j-1, 4k-3)

    Lmat = (raw - raw.T) / 2.0
    return LiouvillianCoeffs(N=N, Lmat=Lmat, Lscalar=scalar_eigenvalue(baths))
