"""Matrix-product representation of second-space states and rotation gates.

A chain of 2N fermionic modes maps under Jordan-Wigner to 2N qubits with
site 1 as the most significant bit.  Every recorded rotation is 2-local in
that encoding: an even pair index m gives a single-site phase gate at site
m/2, an odd one a nearest-neighbor gate at ((m-1)/2, (m+1)/2) whose string
factors cancel.  The replay multiplies the fold's block of records for one
site pair into one two-site unitary, which acts on the pair's even states
(|00>, |11>) and odd states (|01>, |10>) as two 2x2 blocks; it builds every
block's unitary once per solve, already read as a 2x2 mix of the cut's two
parity sectors for each pair of bond parities.

Every gate conserves fermion parity and the replay starts from a product
state, so each bond basis is parity-sorted: the first `TensorState.even[j]`
vectors of bond j have even parity, the rest odd.  The physical index of an
entry (a, b) of a site's tensor is then fixed, p = parity(a) xor parity(b),
so each site is stored as one (left bond, right bond) matrix and each parity
sector of a bond is a plain slice of it.  Two-site updates factorize each
sector on its own.
"""

from __future__ import annotations

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


_MIX_AXES = np.indices((2, 2, 2, 2))
# sign of theta in the phase on each left leg of the two parity blocks, for a phase on the
# left site and on the right site, which reverses in the odd block: there the right leg is
# the left one flipped
_PHASE_SIGNS = np.array([[[1.0, -1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, 1.0]]])


def _pair_gates(pairs, ms, thetas) -> np.ndarray:
    """Cut-sector mixes of blocks of (m, theta) records on site pairs, one block per row of
    ms and thetas, multiplied in application order along the row.

    Record (m, theta) is exp(theta/2 * gamma~_{m-1} gamma~_m) on the block's pair (j, j+1),
    0-based: m = 2j+3 is the pair's gate cos + i sin X(x)X; m = 2j+2 and m = 2j+4 are the
    phase diag(e^{i theta/2}, e^{-i theta/2}) on the left and on the right site.  The
    product is built as two 2x2 parity blocks, on (|00>, |11>) and on (|01>, |10>), each
    indexed by the left leg.  On a two-site amplitude with left bond parity pa and right
    bond parity pb, cut sector q holds the legs (pa^q, pb^q), so parity block pa^pb maps
    sector q to sector x with its entry [pa^x, pa^q].  Returns G of shape
    (blocks, 2, 2, 2, 2) with G[b, q, x, pa, pb] that entry of block b's product.
    """
    pairs, ms = np.asarray(pairs)[:, None], np.asarray(ms)
    half = 0.5 * np.asarray(thetas, dtype=float)[..., None, None, None]
    c, s = np.cos(half), np.sin(half)
    two = (ms == 2 * pairs + 3)[..., None, None, None]
    # each record is cos + i sin K, K the leg swap X(x)X for the pair's gate and the diagonal of
    # leg signs for a phase, applied as cos g + (i sin) K g with each product rounded on its own:
    # numpy's fused complex multiply rounds differently and moves small eec values by 1e-10
    swap = np.where(two, 1j * s, 0)
    phase = np.where(two, 0, 1j * s * _PHASE_SIGNS[(ms == 2 * pairs + 4).astype(int)][..., None])
    g = np.zeros((len(ms), 2, 2, 2), dtype=complex)
    g[..., [0, 1], [0, 1]] = 1.0
    for cos, sin_swap, sin_phase in zip(*(np.moveaxis(t, 1, 0) for t in (c, swap, phase))):
        g = cos * g + sin_phase * g + sin_swap * g[:, :, ::-1]
    q, x, pa, pb = _MIX_AXES
    return g[:, pa ^ pb, pa ^ x, pa ^ q]


def _update_pair(state: TensorState, j: int, gate: np.ndarray, center_left: bool = False) -> None:
    """Apply a parity-preserving two-site unitary, given as one block of _pair_gates, to sites
    (j, j+1) in place and split the result by one batched SVD.

    The gate conserves parity, so the two-site block splits into one a x c
    matrix per parity of the cut; the gate mixes the two entrywise, with a
    2x2 mix for each pair of bond parities.  Both are factorized in one
    batched SVD and truncated together: each sector keeps its singular values
    above truncTol times the larger top one, and when the maxChi cap binds the
    sectors are ranked together, sector 0 first on ties.  The singular values
    go to site j+1, or to site j with center_left, and the other site keeps
    the orthonormal factor, so the orthogonality center ends on that site.
    Truncation against the local singular values is only optimal when the
    center sits on the pair; apply_inverse_sequence keeps that invariant,
    direct callers are responsible for their own gauge.
    """
    if not 0 <= j < state.sites - 1:
        raise ValueError(f"pair ({j + 1},{j + 2}) outside chain of {state.sites}")
    L, R, mid = state.matrices[j], state.matrices[j + 1], state.even[j + 1]
    a, c, even_a, even_c = L.shape[0], R.shape[1], state.even[j], state.even[j + 2]
    # cut sector q's block L[:, q] R[q], then each bond-parity pair's mix spread over its
    # entries, so that one broadcast product and one sum over q give both new sectors
    M = np.empty((2, 1, a, c), dtype=complex)
    np.matmul(L[:, :mid], R[:mid], out=M[0, 0])
    np.matmul(L[:, mid:], R[mid:], out=M[1, 0])
    mix = gate.repeat((even_a, a - even_a), axis=2).repeat((even_c, c - even_c), axis=3)
    mix *= M
    np.add(mix[0], mix[1], out=M[:, 0])
    del mix  # twice the sectors' size: freed so that it does not add to the SVD's peak memory
    U, s, Vh = _robust_svd(M[:, 0])
    # each sector comes back sorted, so the values it keeps are a prefix
    k0, k1 = (s > state.truncTol * max(s[0, 0], s[1, 0])).sum(axis=1).tolist()
    keep = max(k0 + k1, 1)
    if state.maxChi > 0:
        keep = min(keep, state.maxChi)
    if keep != k0 + k1:
        # the cap or the floor of one vector binds: rank both sectors together, sector 0 first on ties
        k0 = int(np.count_nonzero(np.argsort(-s.ravel(), kind="stable")[:keep] < s.shape[1]))
        k1 = keep - k0
    if keep < s.size:
        s0, s1 = s
        total = float(np.dot(s0, s0) + np.dot(s1, s1))
        if total > 0:
            state.discardedWeight += float(np.dot(s0[k0:], s0[k0:]) + np.dot(s1[k1:], s1[k1:])) / total
    if center_left:
        U *= s[:, None, :]
    else:
        Vh *= s[:, :, None]
    state.matrices[j] = np.concatenate((U[0, :, :k0], U[1, :, :k1]), axis=1)
    state.matrices[j + 1] = np.concatenate((Vh[0, :k0], Vh[1, :k1]))
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
    for j, gate, left in zip(pairs.tolist(), _pair_gates(pairs, ms, thetas), center_left):
        _update_pair(state, j, gate, center_left=left)


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


def normalize_vacuum(state: TensorState) -> complex:
    """Fix the overall scale so the vacuum coefficient becomes exactly 1."""
    c0 = coefficient(state, [0] * state.sites)
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
