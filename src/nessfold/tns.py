"""Matrix-product representation of second-space states and rotation gates.

A chain of 2N fermionic modes maps under Jordan-Wigner to 2N qubits with
site 1 as the most significant bit.  Every recorded rotation is 2-local in
that encoding: an even pair index m gives a single-site phase gate at site
m/2, an odd one a nearest-neighbor gate at ((m-1)/2, (m+1)/2) whose string
factors cancel.  Tensors are stored as (left bond, physical, right bond).

Every gate conserves fermion parity and the replay starts from a product
state, so each bond basis is parity-sorted: the first `TensorState.even[j]`
vectors of bond j have even parity, the rest odd.  An entry (a, p, b) of a
tensor is nonzero only if parity(a) + p = parity(b) mod 2, and two-site
updates and gauge shifts factorize each parity block on its own.
"""

from __future__ import annotations

import math
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
    """Mutable MPS over `sites` qubits with relative-cutoff truncation.

    `even[j]` counts the even-parity vectors of bond j, which sits left of
    site j (0-based); bond `sites` closes the chain.
    """

    sites: int
    tensors: list
    even: list
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
    even = [1 - sum(bits[:j]) % 2 for j in range(len(bits) + 1)]
    return TensorState(sites=len(bits), tensors=tensors, even=even, truncTol=trunc_tol, maxChi=max_chi)


def rotation_gate(m: int, theta: float) -> np.ndarray:
    """Matrix of exp(theta/2 * gamma~_{m-1} gamma~_m): 2x2 on site m/2 for even m,
    4x4 on sites ((m-1)/2, (m+1)/2) for odd m."""
    half = 0.5 * theta
    if m % 2 == 0:
        return np.diag([np.exp(1j * half), np.exp(-1j * half)])
    return np.cos(half) * np.eye(4, dtype=complex) + np.sin(half) * _XX


def _bond(dim: int, even: int):
    """Positions and 0/1 parities of the vectors of a bond whose first `even` are even."""
    pos = np.arange(dim)
    return pos, (pos >= even).astype(np.intp)


def _robust_svd(blocks: np.ndarray):
    try:
        return np.linalg.svd(blocks, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but reliable
        parts = [sla.svd(b, full_matrices=False, lapack_driver="gesvd") for b in blocks]
        return tuple(np.stack(x) for x in zip(*parts))


def _qr_sectors(b0: np.ndarray, b1: np.ndarray):
    """Reduced QR of two blocks with equal row counts in one batched LAPACK call.

    The narrower block is padded with zero columns: Householder QR leaves the
    factors of leading columns unchanged by zero columns after them.
    """
    rows, n0, n1 = b0.shape[0], b0.shape[1], b1.shape[1]
    padded = np.zeros((2, rows, max(n0, n1)), dtype=complex)
    padded[0, :, :n0] = b0
    padded[1, :, :n1] = b1
    q, r = np.linalg.qr(padded)
    k0, k1 = min(rows, n0), min(rows, n1)
    return q[0, :, :k0], r[0, :k0, :n0], q[1, :, :k1], r[1, :k1, :n1]


def _truncate(s: np.ndarray, trunc_tol: float, max_chi: int) -> int:
    keep = int(np.count_nonzero(s > trunc_tol * s[0])) if s[0] > 0 else 1
    keep = max(keep, 1)
    if max_chi > 0:
        keep = min(keep, max_chi)
    return keep


def apply_gate(state: TensorState, m: int, theta: float) -> None:
    """Apply rotation_gate(m, theta) to the state in place, splitting two-site updates by SVD.

    The gate conserves parity, so the two-site block splits into one a x c
    matrix per parity of the cut; both are factorized in one batched SVD and
    truncated over their merged singular values.
    Truncation against the local singular values is only optimal when the
    orthogonality center sits on the gated pair; apply_inverse_sequence keeps
    that invariant, direct callers are responsible for their own gauge.
    """
    half = 0.5 * theta
    if m % 2 == 0:
        j = m // 2 - 1
        if not 0 <= j < state.sites:
            raise ValueError(f"site {j + 1} outside 1..{state.sites}")
        phase = complex(math.cos(half), math.sin(half))
        state.tensors[j] = state.tensors[j] * np.array([[phase], [phase.conjugate()]])
        return
    j = (m - 1) // 2 - 1
    if not 0 <= j < state.sites - 1:
        raise ValueError(f"pair ({j + 1},{j + 2}) outside chain of {state.sites}")
    A, B, mid = state.tensors[j], state.tensors[j + 1], state.even[j + 1]
    ra, pa = _bond(A.shape[0], state.even[j])
    rc, pc = _bond(B.shape[2], state.even[j + 2])
    # sector s of the cut: rows (x, pa[x]^s) by columns (pc[y]^s, y)
    M = np.empty((2, ra.size, rc.size), dtype=complex)
    np.matmul(A[ra, pa, :mid], B[:mid, pc, rc], out=M[0])
    np.matmul(A[ra, 1 - pa, mid:], B[mid:, 1 - pc, rc], out=M[1])
    # cos + i sin X(x)X flips both physical legs, which swaps the sectors
    U, s, Vh = _robust_svd(math.cos(half) * M + 1j * math.sin(half) * M[::-1])
    order = np.argsort(-s.ravel(), kind="stable")
    ranked = s.ravel()[order]
    keep = _truncate(ranked, state.truncTol, state.maxChi)
    total = float((ranked * ranked).sum())
    if total > 0:
        state.discardedWeight += float((ranked[keep:] * ranked[keep:]).sum()) / total
    k0 = int(np.count_nonzero(order[:keep] < s.shape[1]))
    k1 = keep - k0
    left = np.zeros((ra.size, 2, keep), dtype=complex)
    left[ra, pa, :k0] = U[0, :, :k0]
    left[ra, 1 - pa, k0:] = U[1, :, :k1]
    right = np.zeros((keep, 2, rc.size), dtype=complex)
    right[:k0, pc, rc] = s[0, :k0, None] * Vh[0, :k0]
    right[k0:, 1 - pc, rc] = s[1, :k1, None] * Vh[1, :k1]
    state.tensors[j], state.tensors[j + 1] = left, right
    state.even[j + 1] = k0
    state.maxBondSeen = max(state.maxBondSeen, keep)


def _shift_center_right(state: TensorState, src: int, dst: int) -> None:
    """QR sweep: make sites src..dst-1 left-orthogonal, pushing weight to dst.

    Each parity sector of the right bond is factorized on its own.
    """
    for j in range(src, dst):
        t, nxt, mid = state.tensors[j], state.tensors[j + 1], state.even[j + 1]
        rl, pl = _bond(t.shape[0], state.even[j])
        q0, r0, q1, r1 = _qr_sectors(t[rl, pl, :mid], t[rl, 1 - pl, mid:])
        k0 = q0.shape[1]
        left = np.zeros((rl.size, 2, k0 + q1.shape[1]), dtype=complex)
        left[rl, pl, :k0] = q0
        left[rl, 1 - pl, k0:] = q1
        flat = nxt.reshape(nxt.shape[0], -1)
        state.tensors[j] = left
        state.tensors[j + 1] = np.concatenate((r0 @ flat[:mid], r1 @ flat[mid:])).reshape(left.shape[2], 2, -1)
        state.even[j + 1] = k0


def _shift_center_left(state: TensorState, src: int, dst: int) -> None:
    """LQ sweep: make sites dst+1..src right-orthogonal, pushing weight to dst.

    Each parity sector of the left bond is factorized on its own.
    """
    for j in range(src, dst, -1):
        t, prev, mid = state.tensors[j], state.tensors[j - 1], state.even[j]
        rr, pr = _bond(t.shape[2], state.even[j + 1])
        q0, r0, q1, r1 = _qr_sectors(t[:mid, pr, rr].conj().T, t[mid:, 1 - pr, rr].conj().T)
        k0 = q0.shape[1]
        right = np.zeros((k0 + q1.shape[1], 2, rr.size), dtype=complex)
        right[:k0, pr, rr] = q0.conj().T
        right[k0:, 1 - pr, rr] = q1.conj().T
        state.tensors[j] = right
        state.tensors[j - 1] = np.concatenate((prev[:, :, :mid] @ r0.conj().T, prev[:, :, mid:] @ r1.conj().T), axis=2)
        state.even[j] = k0


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
