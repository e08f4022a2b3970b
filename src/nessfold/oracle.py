"""Brute-force reference solvers used to validate the folded pipeline.

Two independent routes to the stationary state: the vectorized Lindblad
superoperator over density matrices (first space) and the dense quadratic
generator over Majorana-string coefficients (second space).  Both scale
exponentially and are deliberately capped at small sizes.  The conversion
map between the two spaces checks the routes against each other, not the
solver, so it lives in the tests.

Jordan-Wigner convention, fixed once: gamma_{2j-1} = Z^(j-1) X_j and
gamma_{2j} = Z^(j-1) Y_j in the basis (|0>, |1>) with site 1 as the most
significant bit.  Every sign check downstream depends on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .exceptions import NonUniqueNess, VacuumVanishes
from .model import BathChannel, KitaevParams, MajoranaHamiltonian, build_kitaev

KERNEL_ABS_TOL = 1e-10
KERNEL_GAP = 1e-6
FIRST_SPACE_MAX_SITES = 3
SECOND_SPACE_MAX_SITES = 6

_ID2 = sp.identity(2, format="csr", dtype=complex)
_Z = sp.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
_X = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
_Y = sp.csr_matrix(np.array([[0.0, -1.0j], [1.0j, 0.0]]))
_LOWER = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@dataclass(frozen=True)
class DenseFirstSpaceNess:
    """Trace-normalized Hermitian stationary density matrix."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex).copy()
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho) - 1.0) > 1e-10:
            raise ValueError(f"trace is {np.trace(rho)}, expected 1")
        if np.linalg.eigvalsh(rho).min() < -1e-8:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class DenseSecondSpaceNess:
    """Vacuum-normalized coefficient vector over second-space bitstrings."""

    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=complex).copy()
        if vec.ndim != 1 or vec.size & (vec.size - 1):
            raise ValueError(f"need a length-2^m vector, got shape {vec.shape}")
        odd = np.array([bin(i).count("1") % 2 == 1 for i in range(vec.size)])
        if odd.any() and np.abs(vec[odd]).max() > 1e-12:
            raise ValueError("odd-parity coefficients are not zero")
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)


def _kron_chain(factors) -> sp.csr_matrix:
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


def _string_operator(n_slots: int, pos: int, op) -> sp.csr_matrix:
    """Z-string up to slot pos (1-based), op at pos, identity after."""
    factors = [_Z] * (pos - 1) + [op] + [_ID2] * (n_slots - pos)
    return _kron_chain(factors)


def majorana_site_matrices(N: int) -> list:
    """Dense first-space gamma_1..gamma_2N over 2^N dimensions."""
    out = []
    for j in range(1, N + 1):
        out.append(_string_operator(N, j, _X).toarray())
        out.append(_string_operator(N, j, _Y).toarray())
    return out


def mode_ladders(n_modes: int) -> list:
    """Sparse annihilators c_1..c_n over 2^n dimensions."""
    return [_string_operator(n_modes, l, _LOWER) for l in range(1, n_modes + 1)]


def build_hamiltonian_dense(H: MajoranaHamiltonian) -> np.ndarray:
    """(1/2) sum_{j,k} A_{2j-1,2k} gamma_{2j-1} (i gamma_2k) as a 2^N matrix."""
    gam = majorana_site_matrices(H.N)
    A_oe = H.A[0::2, 1::2]
    dim = 2 ** H.N
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(H.N):
        for k in range(H.N):
            if A_oe[j, k] != 0.0:
                out += 0.5 * A_oe[j, k] * (gam[2 * j] @ (1j * gam[2 * k + 1]))
    return out


def bath_operator_dense(channel: BathChannel, majoranas) -> np.ndarray:
    """L = sum_j B_{2j-1} gamma_{2j-1} + B_{2j} (i gamma_2j)."""
    dim = majoranas[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(channel.N):
        out += channel.B[2 * j] * majoranas[2 * j]
        out += channel.B[2 * j + 1] * (1j * majoranas[2 * j + 1])
    return out


def lindblad_superoperator(H_dense: np.ndarray, jump_ops) -> sp.csr_matrix:
    """Row-major vectorized generator with the factor-2 dissipator convention."""
    dim = H_dense.shape[0]
    eye = sp.identity(dim, format="csr", dtype=complex)
    Hs = sp.csr_matrix(H_dense)
    S = -1j * (sp.kron(Hs, eye) - sp.kron(eye, Hs.T))
    for L in jump_ops:
        Ls = sp.csr_matrix(L)
        LdL = (Ls.conj().T @ Ls).tocsr()
        S = S + 2.0 * sp.kron(Ls, Ls.conj()) - sp.kron(LdL, eye) - sp.kron(eye, LdL.T)
    return S.tocsr()


def _kernel_index(eigvals: np.ndarray) -> int:
    """Index of the unique near-zero eigenvalue, or NonUniqueNess."""
    mags = np.abs(eigvals)
    order = np.argsort(mags)
    if mags[order[0]] > KERNEL_ABS_TOL:
        raise NonUniqueNess(f"no kernel eigenvalue: smallest magnitude {mags[order[0]]:.3e}")
    if len(order) > 1 and mags[order[1]] < KERNEL_GAP:
        raise NonUniqueNess(
            f"kernel not isolated: next eigenvalue magnitude {mags[order[1]]:.3e}"
        )
    return int(order[0])


def dense_first_space_ness(params, baths) -> DenseFirstSpaceNess:
    """Stationary density matrix from the vectorized Lindblad generator, N <= 3."""
    H = build_kitaev(params) if isinstance(params, KitaevParams) else params
    if H.N > FIRST_SPACE_MAX_SITES:
        raise ValueError(f"first-space oracle capped at N = {FIRST_SPACE_MAX_SITES}")
    gam = majorana_site_matrices(H.N)
    jump_ops = [bath_operator_dense(ch, gam) for ch in baths]
    S = lindblad_superoperator(build_hamiltonian_dense(H), jump_ops)
    dim = 2 ** H.N
    w, V = np.linalg.eig(S.toarray())  # at most 64 x 64
    idx = _kernel_index(w)
    rho = V[:, idx].reshape(dim, dim)
    t = np.trace(rho)
    if abs(t) < 1e-12:
        raise NonUniqueNess("kernel vector is traceless, not a density matrix")
    rho = rho / t
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise NonUniqueNess("kernel vector is not Hermitian after phase fixing")
    return DenseFirstSpaceNess(rho=(rho + rho.conj().T) / 2.0)


def second_space_liouvillian(H: MajoranaHamiltonian, baths) -> sp.csr_matrix:
    """Quadratic generator over 2N second-space modes, dimension 2^2N."""
    N = H.N
    ladders = mode_ladders(2 * N)
    dags = [c.conj().T.tocsr() for c in ladders]
    dim = 2 ** (2 * N)
    A_oe = H.A[0::2, 1::2]

    Lop = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(N):
        for k in range(N):
            if A_oe[j, k] != 0.0:
                c_odd, d_odd = ladders[2 * j], dags[2 * j]
                c_even, d_even = ladders[2 * k + 1], dags[2 * k + 1]
                Lop = Lop + 1j * A_oe[j, k] * (d_even @ c_odd + d_odd @ c_even)

    for ch in baths:
        bo = ch.B[0::2]
        be = ch.B[1::2]
        u1 = sp.csr_matrix((dim, dim), dtype=complex)
        v1 = sp.csr_matrix((dim, dim), dtype=complex)
        u2 = sp.csr_matrix((dim, dim), dtype=complex)
        v2 = sp.csr_matrix((dim, dim), dtype=complex)
        for j in range(N):
            co, do = ladders[2 * j], dags[2 * j]
            ce, de = ladders[2 * j + 1], dags[2 * j + 1]
            u1 = u1 + (-bo[j]) * do + be[j] * de
            v1 = v1 + bo[j] * (co + do) + be[j] * (de - ce)
            u2 = u2 + bo[j] * do + be[j] * de
            v2 = v2 + bo[j] * (do - co) - be[j] * (ce + de)
        Lop = Lop + 2.0 * (u1 @ v1 + u2 @ v2)
    return Lop.tocsr()


def _even_parity_indices(dim: int) -> np.ndarray:
    return np.array([i for i in range(dim) if bin(i).count("1") % 2 == 0])


def dense_second_space_ness(H: MajoranaHamiltonian, baths) -> DenseSecondSpaceNess:
    """Kernel of the second-space generator in the even-parity sector, N <= 6."""
    if H.N > SECOND_SPACE_MAX_SITES:
        raise ValueError(f"second-space oracle capped at N = {SECOND_SPACE_MAX_SITES}")
    Lop = second_space_liouvillian(H, baths)
    dim = Lop.shape[0]
    even = _even_parity_indices(dim)
    block = Lop[np.ix_(even, even)].toarray()
    w, V = np.linalg.eig(block)
    v = V[:, _kernel_index(w)]
    if abs(v[0]) < 1e-13:
        raise VacuumVanishes(f"kernel has vacuum coefficient {abs(v[0]):.3e}")
    vec = np.zeros(dim, dtype=complex)
    vec[even] = v / v[0]
    return DenseSecondSpaceNess(vec=vec)


def _pattern_index(positions, n_bits: int) -> int:
    idx = 0
    for p in positions:
        idx |= 1 << (n_bits - p)
    return idx


def eec_from_vec(vec: np.ndarray, N: int) -> float:
    """Same contraction as the tensor-state observable, on a dense vector."""
    n2 = 2 * N
    c_a = vec[_pattern_index((2, n2 - 1), n2)]
    c_b = vec[_pattern_index((1, n2), n2)]
    return float(2.0 * abs(c_a + c_b))


def occupancy_from_vec(vec: np.ndarray, N: int, j: int) -> float:
    n2 = 2 * N
    c = vec[_pattern_index((2 * j - 1, 2 * j), n2)]
    return float((1.0 + c.real) / 2.0)
