"""Matrix-product representation of second-space states and rotation gates.

A chain of 2N fermionic modes maps under Jordan-Wigner to 2N qubits with
site 1 as the most significant bit.  Every recorded rotation is 2-local in
that encoding: an even pair index m gives a single-site phase gate at site
m/2, an odd one a nearest-neighbor gate at ((m-1)/2, (m+1)/2) whose string
factors cancel.  Tensors are stored as (left bond, physical, right bond).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .exceptions import VacuumVanishes
from .folding import FoldResult

TRUNC_TOL_DEFAULT = 1e-12
VACUUM_EPS = 1e-13

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_XX = 1j * np.kron(_PAULI_X, _PAULI_X)


@dataclass
class TensorState:
    """Mutable MPS over `sites` qubits with relative-cutoff truncation."""

    sites: int
    tensors: list
    truncTol: float = TRUNC_TOL_DEFAULT
    maxChi: int = 0
    z0: complex = 0.0
    discardedWeight: float = 0.0
    maxBondSeen: int = field(default=1)

    @property
    def bondDims(self) -> list:
        return [t.shape[0] for t in self.tensors] + [self.tensors[-1].shape[2]]


def product_state(bits, trunc_tol: float = TRUNC_TOL_DEFAULT, max_chi: int = 0) -> TensorState:
    """Bond-1 state |b_1 b_2 ... b_n) from an iterable of 0/1 occupations."""
    bits = list(bits)
    if not bits:
        raise ValueError("need at least one site")
    tensors = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"occupation must be 0 or 1, got {b}")
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, b, 0] = 1.0
        tensors.append(t)
    return TensorState(sites=len(bits), tensors=tensors, truncTol=trunc_tol, maxChi=max_chi)


def rotation_gate(m: int, theta: float) -> np.ndarray:
    """Matrix of exp(theta/2 * gamma~_{m-1} gamma~_m): 2x2 on site m/2 for even m,
    4x4 on sites ((m-1)/2, (m+1)/2) for odd m."""
    half = 0.5 * theta
    if m % 2 == 0:
        return np.diag([np.exp(1j * half), np.exp(-1j * half)])
    return np.cos(half) * np.eye(4, dtype=complex) + np.sin(half) * _XX


def _robust_svd(mat: np.ndarray):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but reliable
        return sla.svd(mat, full_matrices=False, lapack_driver="gesvd")


def _truncate(s: np.ndarray, trunc_tol: float, max_chi: int) -> int:
    keep = int(np.count_nonzero(s > trunc_tol * s[0])) if s[0] > 0 else 1
    keep = max(keep, 1)
    if max_chi > 0:
        keep = min(keep, max_chi)
    return keep


def apply_gate(state: TensorState, m: int, theta: float) -> None:
    """Contract rotation_gate(m, theta) into the state in place, splitting two-site updates by SVD.

    Truncation against the local singular values is only optimal when the
    orthogonality center sits on the gated pair; apply_inverse_sequence keeps
    that invariant, direct callers are responsible for their own gauge.
    """
    mat = rotation_gate(m, theta)
    if m % 2 == 0:
        j = m // 2 - 1
        if not 0 <= j < state.sites:
            raise ValueError(f"site {j + 1} outside 1..{state.sites}")
        state.tensors[j] = np.einsum("pq,aqb->apb", mat, state.tensors[j])
        return
    j = (m - 1) // 2 - 1
    if not 0 <= j < state.sites - 1:
        raise ValueError(f"pair ({j + 1},{j + 2}) outside chain of {state.sites}")
    A = state.tensors[j]
    B = state.tensors[j + 1]
    a, _, _ = A.shape
    _, _, c = B.shape
    block = np.tensordot(A, B, axes=([2], [0]))
    block = np.einsum("pqrs,arsc->apqc", mat.reshape(2, 2, 2, 2), block)
    U, s, Vh = _robust_svd(block.reshape(a * 2, 2 * c))
    keep = _truncate(s, state.truncTol, state.maxChi)
    total = float((s * s).sum())
    if total > 0:
        state.discardedWeight += float((s[keep:] * s[keep:]).sum()) / total
    state.tensors[j] = U[:, :keep].reshape(a, 2, keep)
    state.tensors[j + 1] = (s[:keep, None] * Vh[:keep]).reshape(keep, 2, c)
    state.maxBondSeen = max(state.maxBondSeen, keep)


def _shift_center_right(state: TensorState, src: int, dst: int) -> None:
    """QR sweep: make sites src..dst-1 left-orthogonal, pushing weight to dst."""
    for j in range(src, dst):
        t = state.tensors[j]
        q, r = np.linalg.qr(t.reshape(-1, t.shape[2]))
        state.tensors[j] = q.reshape(t.shape[0], 2, q.shape[1])
        state.tensors[j + 1] = np.tensordot(r, state.tensors[j + 1], axes=([1], [0]))


def _shift_center_left(state: TensorState, src: int, dst: int) -> None:
    """LQ sweep: make sites dst+1..src right-orthogonal, pushing weight to dst."""
    for j in range(src, dst, -1):
        t = state.tensors[j]
        q, r = np.linalg.qr(t.reshape(t.shape[0], -1).conj().T)
        k = q.shape[1]
        state.tensors[j] = q.conj().T.reshape(k, 2, t.shape[2])
        state.tensors[j - 1] = np.tensordot(state.tensors[j - 1], r.conj().T, axes=([2], [0]))


def apply_inverse_sequence(state: TensorState, result: FoldResult) -> None:
    """Undo the recorded rotation bundle: reversed order, negated angles.

    Zero-angle records are skipped; they exist only to keep the replayed
    sequence aligned with the sweep schedule.  The orthogonality center is
    moved onto each two-site gate before it is applied (single-site unitaries
    preserve canonical form wherever they act), so every truncation happens
    against genuine Schmidt coefficients and the bond dimension stays at the
    state's actual entanglement.
    """
    center = 0
    rots = result.rotations
    for m, theta in zip(rots.m[::-1].tolist(), rots.theta[::-1].tolist()):
        if theta == 0.0:
            continue
        if m % 2 == 1:
            j = (m - 1) // 2 - 1
            if center < j:
                _shift_center_right(state, center, j)
            elif center > j + 1:
                _shift_center_left(state, center, j + 1)
            center = j + 1
        apply_gate(state, m, -theta)


def coefficient(state: TensorState, bits) -> complex:
    """Amplitude of one occupation pattern, contracted left to right."""
    bits = list(bits)
    if len(bits) != state.sites:
        raise ValueError(f"need {state.sites} occupations, got {len(bits)}")
    v = np.ones(1, dtype=complex)
    for t, b in zip(state.tensors, bits):
        v = v @ t[:, b, :]
    return complex(v[0])


def vacuum_amplitude(state: TensorState) -> complex:
    return coefficient(state, [0] * state.sites)


def normalize_vacuum(state: TensorState, eps: float = VACUUM_EPS) -> complex:
    """Fix the overall scale so the vacuum coefficient becomes exactly 1."""
    c0 = vacuum_amplitude(state)
    if abs(c0) < eps:
        raise VacuumVanishes(f"vacuum amplitude {abs(c0):.3e} below {eps:.3e}")
    state.z0 = 1.0 / c0
    return state.z0


def dense_coefficients(state: TensorState) -> np.ndarray:
    """Full 2^sites coefficient vector, big-endian (site 1 = most significant bit)."""
    arr = state.tensors[0]
    for t in state.tensors[1:]:
        arr = np.tensordot(arr, t, axes=([arr.ndim - 1], [0]))
    return np.asarray(arr).reshape(2 ** state.sites)
