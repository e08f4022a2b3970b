"""Matrix-product representation of second-space states and rotation gates.

A chain of 2N fermionic modes maps under Jordan-Wigner to 2N qubits with
site 1 as the most significant bit.  Every recorded rotation is 2-local in
that encoding: an even pair index m gives a single-site phase gate at site
m/2, an odd one a nearest-neighbor gate at ((m-1)/2, (m+1)/2) whose string
factors cancel.  The replay multiplies the fold's block of records for one
site pair into one two-site unitary, which acts on the pair's even states
(|00>, |11>) and odd states (|01>, |10>) as two 2x2 blocks.

Every gate conserves fermion parity and the replay starts from a product
state, so each bond basis is parity-sorted: the first `TensorState.even[j]`
vectors of bond j have even parity, the rest odd.  The physical index of an
entry (a, b) of a site's tensor is then fixed, p = parity(a) xor parity(b),
so each site is stored as one (left bond, right bond) matrix and each parity
sector of a bond is a plain slice of it.  Two-site updates factorize each
sector on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import VacuumVanishes
from .folding import _PAIR_STEPS, FoldResult

TRUNC_TOL_DEFAULT = 1e-12
VACUUM_EPS = 1e-13


def _physical(M: np.ndarray, even_left: int, even_right: int) -> np.ndarray:
    """Physical index p = parity(a) xor parity(b) of every entry (a, b) of a site matrix."""
    return (np.arange(M.shape[0]) >= even_left)[:, None] != (np.arange(M.shape[1]) >= even_right)


def _sector(even: int, parity: int) -> slice:
    """Positions of one parity's vectors in a bond whose first `even` vectors are even."""
    return slice(None, even) if parity == 0 else slice(even, None)


@dataclass
class TensorState:
    """Mutable MPS with relative-cutoff truncation, one matrix per site.

    `matrices[j]` maps bond j, which sits left of site j (0-based), to bond
    j + 1; bond `sites` closes the chain.  `even[j]` counts the even-parity
    vectors of bond j, which come first.  Entry (a, b) of `matrices[j]` is
    the amplitude of physical index p = parity(a) xor parity(b) at site j.
    """

    matrices: list
    even: list
    truncTol: float = TRUNC_TOL_DEFAULT
    maxChi: int = 0
    z0: complex = 0.0
    discardedWeight: float = 0.0
    maxBondSeen: int = field(default=1)

    @property
    def sites(self) -> int:
        return len(self.matrices)

    @property
    def bondDims(self) -> list:
        return [M.shape[0] for M in self.matrices] + [self.matrices[-1].shape[1]]

    @property
    def tensors(self) -> list:
        """Dense (left bond, physical, right bond) arrays, built on each access."""
        out = []
        for j, M in enumerate(self.matrices):
            p = _physical(M, self.even[j], self.even[j + 1])
            out.append(np.stack((np.where(p, 0, M), np.where(p, M, 0)), axis=1))
        return out


def _occupations(bits) -> list:
    bits = list(bits)
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"occupation must be 0 or 1, got {b}")
    return [int(b) for b in bits]


def product_state(bits, trunc_tol: float = TRUNC_TOL_DEFAULT, max_chi: int = 0) -> TensorState:
    """Bond-1 state |b_1 b_2 ... b_n) from an iterable of 0/1 occupations."""
    bits = _occupations(bits)
    if not bits:
        raise ValueError("need at least one site")
    # bond j's one vector has the parity of the occupations left of it, so site j's entry has p = b_j
    even = [1 - sum(bits[:j]) % 2 for j in range(len(bits) + 1)]
    matrices = [np.ones((1, 1), dtype=complex) for _ in bits]
    return TensorState(matrices=matrices, even=even, truncTol=trunc_tol, maxChi=max_chi)


def _robust_svd(blocks: np.ndarray):
    try:
        return np.linalg.svd(blocks, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but reliable.
        # scipy is imported here so that a solve that never falls back never loads it.
        import scipy.linalg as sla

        parts = [sla.svd(b, full_matrices=False, lapack_driver="gesvd") for b in blocks]
        return tuple(np.stack(x) for x in zip(*parts))


def _truncate(s: np.ndarray, trunc_tol: float, max_chi: int) -> int:
    keep = int(np.count_nonzero(s > trunc_tol * s[0])) if s[0] > 0 else 1
    keep = max(keep, 1)
    if max_chi > 0:
        keep = min(keep, max_chi)
    return keep


def _pair_gate(j: int, records) -> tuple:
    """Product of the (m, theta) records, in application order, each exp(theta/2 *
    gamma~_{m-1} gamma~_m), on the site pair (j, j+1), 0-based.

    Returns its two parity blocks, on (|00>, |11>) and on (|01>, |10>), each a
    row-major 2x2 list indexed by the left leg.  m = 2j+3 is the pair's gate
    cos + i sin X(x)X; m = 2j+2 and m = 2j+4 are the phase
    diag(e^{i theta/2}, e^{-i theta/2}) on the left and on the right site, which
    reverses in the odd block on the right site.
    """
    even, odd = [1 + 0j, 0j, 0j, 1 + 0j], [1 + 0j, 0j, 0j, 1 + 0j]
    for m, theta in records:
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        if m == 2 * j + 3:
            s *= 1j
            for g in (even, odd):
                g[:] = [c * g[0] + s * g[2], c * g[1] + s * g[3], s * g[0] + c * g[2], s * g[1] + c * g[3]]
            continue
        e = complex(c, s)
        ec = e.conjugate()
        even[:] = [e * even[0], e * even[1], ec * even[2], ec * even[3]]
        if m != 2 * j + 2:
            e, ec = ec, e
        odd[:] = [e * odd[0], e * odd[1], ec * odd[2], ec * odd[3]]
    return even, odd


def _update_pair(state: TensorState, j: int, gate: tuple, center_left: bool = False) -> None:
    """Apply a parity-preserving two-site unitary, given as _pair_gate's two blocks, to sites
    (j, j+1) in place and split the result by one batched SVD.

    The gate conserves parity, so the two-site block splits into one a x c
    matrix per parity of the cut; both are factorized in one batched SVD and
    truncated over their merged singular values.  The singular values go to
    site j+1, or to site j with center_left, and the other site keeps the
    orthonormal factor, so the orthogonality center ends on that site.
    Truncation against the local singular values is only optimal when the
    center sits on the pair; apply_inverse_sequence keeps that invariant,
    direct callers are responsible for their own gauge.
    """
    if not 0 <= j < state.sites - 1:
        raise ValueError(f"pair ({j + 1},{j + 2}) outside chain of {state.sites}")
    L, R, mid = state.matrices[j], state.matrices[j + 1], state.even[j + 1]
    # one a x c block per parity of the cut
    M = np.stack((L[:, :mid] @ R[:mid], L[:, mid:] @ R[mid:]))
    # entry (a, b) of cut sector q has legs (pa^q, pb^q): its parity block is pa^pb and its
    # index there the left leg pa^q, so odd-parity rows see the block reversed in both indices
    rows = (slice(None, state.even[j]), slice(state.even[j], None))
    cols = (slice(None, state.even[j + 2]), slice(state.even[j + 2], None))
    for pa in (0, 1):
        for pb in (0, 1):
            g = gate[pa ^ pb][::-1] if pa else gate[pa ^ pb]
            b0, b1 = M[0, rows[pa], cols[pb]], M[1, rows[pa], cols[pb]]
            new0 = g[0] * b0 + g[1] * b1
            M[1, rows[pa], cols[pb]] = g[2] * b0 + g[3] * b1
            M[0, rows[pa], cols[pb]] = new0
    U, s, Vh = _robust_svd(M)
    order = np.argsort(-s.ravel(), kind="stable")
    ranked = s.ravel()[order]
    keep = _truncate(ranked, state.truncTol, state.maxChi)
    total = float((ranked * ranked).sum())
    if total > 0:
        state.discardedWeight += float((ranked[keep:] * ranked[keep:]).sum()) / total
    k0 = int(np.count_nonzero(order[:keep] < s.shape[1]))
    k1 = keep - k0
    U0, U1, V0, V1 = U[0, :, :k0], U[1, :, :k1], Vh[0, :k0], Vh[1, :k1]
    if center_left:
        U0, U1 = U0 * s[0, :k0], U1 * s[1, :k1]
    else:
        V0, V1 = s[0, :k0, None] * V0, s[1, :k1, None] * V1
    state.matrices[j] = np.concatenate((U0, U1), axis=1)
    state.matrices[j + 1] = np.concatenate((V0, V1))
    state.even[j + 1] = k0
    state.maxBondSeen = max(state.maxBondSeen, keep)


def apply_inverse_sequence(state: TensorState, result: FoldResult) -> None:
    """Undo the recorded rotation bundle: reversed order, negated angles.

    The fold records one block of len(_PAIR_STEPS) rotations per site pair;
    reversed, each block is multiplied into one two-site unitary, zero angles
    included as exact identity factors, and applied with one SVD.  Reversed,
    the fold's rows are staircases of alternating direction, each starting
    on the pair next to where the previous one ended, so consecutive blocks
    sit at most one pair apart.  Each update leaves the orthogonality center
    on the site its pair shares with the next block's pair, and the product
    state is canonical at every site, so every truncation happens against
    genuine Schmidt coefficients with no gauge step in between.  Records that
    do not follow that layout raise ValueError before the state is touched.
    """
    size = len(_PAIR_STEPS)
    rots = result.rotations
    if len(rots) % size:
        raise ValueError(f"{len(rots)} rotation records do not split into site-pair blocks of {size}")
    ms = rots.m[::-1].reshape(-1, size)
    thetas = -rots.theta[::-1].reshape(-1, size)
    # a block on pair j (0-based) holds m = 2j + 2 + i for the steps' first local columns i, or
    # m = 2j + 4 - i when the fold cleared its row on the mirrored columns
    steps = np.array([i for i, _ in _PAIR_STEPS[::-1]])
    pairs = (ms[:, 0] - 3) // 2  # both patterns open with the pair's two-site rotation, m = 2j + 3
    base = 2 * pairs[:, None] + 2
    if not np.all(np.all(ms == base + steps, axis=1) | np.all(ms == base + 2 - steps, axis=1)):
        raise ValueError(f"rotation records follow neither of the fold's per-pair patterns "
                         f"2j + 2 + {steps.tolist()} and 2j + 4 - {steps.tolist()}")
    if np.any((pairs < 0) | (pairs > state.sites - 2)):
        raise ValueError(f"rotation records act outside the chain of {state.sites} sites")
    moves = np.diff(pairs)
    if np.any(np.abs(moves) > 1):
        raise ValueError("a block skips past the orthogonality center; the fold's rows never do")
    center_left = np.append(moves < 0, False).tolist()
    for j, m, theta, left in zip(pairs.tolist(), ms.tolist(), thetas.tolist(), center_left):
        _update_pair(state, j, _pair_gate(j, zip(m, theta)), center_left=left)


def coefficient(state: TensorState, bits) -> complex:
    """Amplitude of one occupation pattern, contracted left to right.

    Only the bond sector of the prefix's parity carries the pattern, so a
    pattern of the wrong total parity reads exactly 0.
    """
    bits = _occupations(bits)
    if len(bits) != state.sites:
        raise ValueError(f"need {state.sites} occupations, got {len(bits)}")
    v, parity = np.ones(1, dtype=complex), 0
    for j, (M, b) in enumerate(zip(state.matrices, bits)):
        v = v @ M[_sector(state.even[j], parity), _sector(state.even[j + 1], parity ^ b)]
        parity ^= b
    return complex(v[0]) if v.size else 0j


def vacuum_amplitude(state: TensorState) -> complex:
    return coefficient(state, [0] * state.sites)


def normalize_vacuum(state: TensorState) -> complex:
    """Fix the overall scale so the vacuum coefficient becomes exactly 1."""
    c0 = vacuum_amplitude(state)
    if abs(c0) < VACUUM_EPS:
        raise VacuumVanishes(f"vacuum amplitude {abs(c0):.3e} below {VACUUM_EPS:.3e}")
    state.z0 = 1.0 / c0
    return state.z0


def dense_coefficients(state: TensorState) -> np.ndarray:
    """Full 2^sites coefficient vector, big-endian (site 1 = most significant bit)."""
    arr = state.tensors[0]
    for t in state.tensors[1:]:
        arr = np.tensordot(arr, t, axes=([arr.ndim - 1], [0]))
    return np.asarray(arr).reshape(2 ** state.sites)
