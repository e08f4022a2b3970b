"""Physical inputs: quadratic chain Hamiltonians in Majorana form and linear bath channels.

Majorana operators are indexed 1..2N, two per site.  A quadratic Hamiltonian is
stored through its real coefficient matrix A,

    H = (1/2) sum_{r,c} A[r][c] gamma_r (i gamma_c),

where A is supported on (odd row, even column) positions only.  A bath channel
is a real vector B of length 2N,

    L = sum_j B[2j-1] gamma_{2j-1} + B[2j] (i gamma_{2j}).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def _check_finite_real(name: str, value) -> float:
    """A real number as a float; complex, bool, str and other non-numbers are refused."""
    if isinstance(value, complex):
        raise ValueError(f"{name} must be real, got complex {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class KitaevParams:
    """Open Kitaev chain: N sites, hopping w, chemical potential mu, pairing delta.

    delta is stored as given; only abs(delta) enters the Majorana form.  A
    complex pairing phase is rejected rather than silently gauged away.
    """

    N: int
    w: float
    mu: float
    delta: float

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(f"chain length must be an integer >= 1, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        for name in ("w", "mu", "delta"):
            object.__setattr__(self, name, _check_finite_real(name, getattr(self, name)))


@dataclass(frozen=True)
class MajoranaHamiltonian:
    """Coefficient matrix A of a quadratic Hamiltonian over 2N Majorana modes."""

    N: int
    A: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        n = 2 * self.N
        if A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must contain finite entries")
        allowed = np.zeros((n, n), dtype=bool)
        allowed[0::2, 1::2] = True  # (odd row, even column) in 1-based indexing
        if np.any(A[~allowed] != 0.0):
            raise ValueError("A must vanish outside (odd row, even column) positions")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class BathChannel:
    """Real coefficient vector of one linear bath operator over 2N Majorana modes."""

    B: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B)
        if np.iscomplexobj(B):
            raise ValueError("bath coefficients must be real")
        B = np.array(B, dtype=float).ravel()
        if B.size < 2 or B.size % 2 != 0:
            raise ValueError(f"bath vector length must be even and >= 2, got {B.size}")
        if not np.all(np.isfinite(B)):
            raise ValueError("bath coefficients must be finite")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def N(self) -> int:
        return self.B.size // 2


@dataclass(frozen=True)
class EndBathParams:
    """Rates of the four end baths: (gamma11, gamma21) on site 1, (gamma12, gamma22) on site N.

    The 1-channels absorb particles (annihilation), the 2-channels inject them
    (creation).
    """

    gamma11: float = 0.0
    gamma21: float = 0.0
    gamma12: float = 0.0
    gamma22: float = 0.0

    def __post_init__(self):
        for name in ("gamma11", "gamma21", "gamma12", "gamma22"):
            v = _check_finite_real(name, getattr(self, name))
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            object.__setattr__(self, name, v)


def build_kitaev(params: KitaevParams) -> MajoranaHamiltonian:
    """Assemble the Majorana coefficient matrix of the open Kitaev chain.

    Per site j: A[2j-1][2j] = -mu.  Per bond j < N: A[2j-1][2j+2] = |delta| - w
    and A[2j+1][2j] = -(|delta| + w); the latter sits at an (odd row > even
    column) position, which arises from reordering gamma_{2j} gamma_{2j+1}.
    """
    N = params.N
    A = np.zeros((2 * N, 2 * N))
    pair = abs(params.delta)
    for j in range(1, N + 1):
        A[2 * j - 2, 2 * j - 1] = -params.mu
        if j < N:
            A[2 * j - 2, 2 * j + 1] = pair - params.w
            A[2 * j, 2 * j - 1] = -(pair + params.w)
    return MajoranaHamiltonian(N=N, A=A)


def single_site_bath(N: int, j: int, kind: str, gamma: float) -> BathChannel:
    """Bath channel sqrt(gamma) c_j (annihilation) or sqrt(gamma) c_j^dagger (creation)."""
    if not 1 <= j <= N:
        raise ValueError(f"site must lie in 1..{N}, got {j}")
    if kind not in ("annihilation", "creation"):
        raise ValueError(f"kind must be 'annihilation' or 'creation', got {kind!r}")
    gamma = _check_finite_real("gamma", gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    B = np.zeros(2 * N)
    amp = np.sqrt(gamma) / 2.0
    B[2 * j - 2] = amp
    B[2 * j - 1] = amp if kind == "annihilation" else -amp
    return BathChannel(B=B)


def end_baths(N: int, p: EndBathParams) -> list[BathChannel]:
    """Up to four end channels; zero-rate channels are omitted."""
    if N < 1:
        raise ValueError(f"chain length must be >= 1, got {N}")
    spec = [
        (1, "annihilation", p.gamma11),
        (1, "creation", p.gamma21),
        (N, "annihilation", p.gamma12),
        (N, "creation", p.gamma22),
    ]
    return [single_site_bath(N, j, kind, g) for j, kind, g in spec if g > 0]
