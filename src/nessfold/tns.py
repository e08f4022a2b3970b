"""Matrix-product representation of second-space states and rotation gates.

A chain of 2N fermionic modes maps under Jordan-Wigner to 2N qubits with
site 1 as the most significant bit.  Every rotation of the fold is 2-local
in that encoding: one that mixes the two sites of a pair is a
nearest-neighbor gate whose string factors cancel, one inside a site a
single-site phase gate.  The replay multiplies the five rotations of each
of the fold's site-pair blocks into one two-site unitary, which acts on the
pair's even states (|00>, |11>) and odd states (|01>, |10>) as two 2x2
blocks; it builds every block's unitary once per solve, already read as a
2x2 mix of the cut's two parity sectors for each pair of bond parities.

Every gate conserves fermion parity and the replay starts from a product
state, so each bond basis is parity-sorted: the first `TensorState.even[j]`
vectors of bond j have even parity, the rest odd.  The physical index of an
entry (a, b) of a site's tensor is then fixed, p = parity(a) xor parity(b),
so each site is stored as one (left bond, right bond) matrix and each parity
sector of a bond is a plain slice of it.  Two-site updates factorize each
sector on its own.

Each update factorizes both sectors in one batched SVD, except where the
maxChi cap can bind: there the kept singular values usually sit far above
sqrt(eps) of the largest, and one batched eigensolve of the sectors' Gram
matrices (the reduced-density-matrix route of DMRG) gives the same
truncation for less work.  The Gram matrix squares the condition number, so
a block that keeps a value below GRAM_FLOOR times its largest, or whose
eigensolve fails, goes through the SVD instead.

These factorizations act on blocks of a few hundred rows at most, where
waking and syncing BLAS threads costs more than the work they share, so
one_blas_thread pins numpy's OpenBLAS, the only one a solve uses (a failed
gesdd call is retried on the conjugate transpose), to one thread.

Observables are ratios of basis coefficients against the vacuum one, so
the trace factors dropped during construction cancel identically.  The
state is Gaussian, and its amplitudes with exactly two modes a < b occupied
(0-based) hold its whole covariance: z0 c_ab = p_ab Gamma_ab, with p_ab = 1
for odd b - a, and otherwise i for even a and -i for odd a.  One left-to-right
sweep (covariance) reads all N(2N-1) of them, and build_report reads every
observable off that matrix with the formulas spectral.gaussian_report applies
to the solve's own covariance.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .exceptions import UnphysicalReadout, VacuumVanishes
from .folding import FoldResult
from .spectral import gaussian_report

TRUNC_TOL_DEFAULT = 1e-12
VACUUM_EPS = 1e-13
IMAG_TOL = 1e-10
# relative floor on every value the Gram route keeps: the Gram matrix squares the condition
# number, so singular values below about sqrt(eps) times the largest are not resolved
GRAM_FLOOR = 1e-6


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


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy.linalg links, or None.

    None on other BLAS builds (MKL, Accelerate) or when the extension cannot be
    loaded; pinning then does nothing.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


_BLAS_THREADS = _openblas_threads()
# OpenBLAS's thread count is process-wide: the first block in saves the count found,
# the last block to leave restores it
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the count found.

    Nested and concurrent blocks leave the count as the first block in found it.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0 and _BLAS_THREADS is not None:
            _pin_saved = _BLAS_THREADS[0]()
            _BLAS_THREADS[1](1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _BLAS_THREADS is not None:
                _BLAS_THREADS[1](_pin_saved)


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
        # gesdd occasionally fails to converge; T^H = V s U^H is the same factorization
        # reached along another path, so (U', s, Vh') of T^H gives T = Vh'^H s U'^H
        U, s, Vh = np.linalg.svd(blocks.conj().swapaxes(-1, -2), full_matrices=False)
        return Vh.conj().swapaxes(-1, -2), s, U.conj().swapaxes(-1, -2)


_MIX_AXES = np.indices((2, 2, 2, 2))
# sign of theta in the phase on each left leg of the two parity blocks, by step role: a phase
# on the left site, none for the pair's gate, and a phase on the right site, which reverses in
# the odd block: there the right leg is the left one flipped
_PHASE_SIGNS = np.array([[[1.0, -1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, -1.0], [-1.0, 1.0]]])


def _pair_gates(roles, thetas) -> np.ndarray:
    """Cut-sector mixes undoing the fold's site-pair blocks, one per row of roles and of thetas
    (FoldResult.roles and the blocks' angles): a block's steps, undone last first at negated
    angles.

    Step (role r, theta) is exp(theta/2 * gamma~_a gamma~_b) on the Majoranas (a, b) =
    (r+1, r+2) of the pair's four: at role 1 the pair's gate cos + i sin X(x)X, else the
    phase diag(e^{i theta/2}, e^{-i theta/2}) on the left site (role 0) or on the right one
    (role 2).  The product is built as two 2x2 parity blocks, on (|00>, |11>) and on
    (|01>, |10>), each indexed by the left leg.  On a two-site amplitude with left bond parity
    pa and right bond parity pb, cut sector q holds the legs (pa^q, pb^q), so parity block
    pa^pb maps sector q to sector x with its entry [pa^x, pa^q].  Returns G of shape
    (blocks, 2, 2, 2, 2) with G[b, q, x, pa, pb] that entry of the product undoing block b.
    """
    half = -0.5 * np.asarray(thetas, dtype=float)[:, ::-1, None, None, None]
    c, s = np.cos(half), np.sin(half)
    undo = np.asarray(roles)[:, ::-1]
    two_site = (undo == 1)[..., None, None, None]
    # each step is cos + i sin K, K the leg swap X(x)X for the pair's gate and the diagonal of
    # leg signs for a phase, applied as cos g + (i sin) K g with each product rounded on its own:
    # numpy's fused complex multiply rounds differently and moves small eec values by 1e-10
    swap = np.where(two_site, 1j * s, 0)
    phase = np.where(two_site, 0, 1j * s * _PHASE_SIGNS[undo][..., None])
    g = np.zeros((len(undo), 2, 2, 2), dtype=complex)
    g[..., [0, 1], [0, 1]] = 1.0
    for cos, sin_swap, sin_phase in zip(*(np.moveaxis(t, 1, 0) for t in (c, swap, phase))):
        g = cos * g + sin_phase * g + sin_swap * g[:, :, ::-1]
    q, x, pa, pb = _MIX_AXES
    return g[:, pa ^ pb, pa ^ x, pa ^ q]


def _kept(state: TensorState, s: np.ndarray) -> tuple:
    """Vectors (k0, k1) each cut sector keeps, given its values sorted in descending order.

    Each sector keeps its values above truncTol times the larger top one; when
    the maxChi cap binds, or no value passes and one vector is kept anyway,
    both sectors are ranked together, sector 0 first on ties.
    """
    k0, k1 = (s > state.truncTol * max(s[0, 0], s[1, 0])).sum(axis=1).tolist()
    keep = max(k0 + k1, 1)
    if state.maxChi > 0:
        keep = min(keep, state.maxChi)
    if keep != k0 + k1:
        k0 = int(np.count_nonzero(np.argsort(-s.ravel(), kind="stable")[:keep] < s.shape[1]))
        k1 = keep - k0
    return k0, k1


def _svd_split(state: TensorState, T: np.ndarray, center_left: bool) -> tuple:
    """Truncated factors of both cut sectors T (2, a, c) from one batched SVD: the values s,
    the kept counts (k0, k1), and each sector's kept left and right factors, the singular
    values folded into the left ones with center_left and into the right ones otherwise."""
    U, s, Vh = _robust_svd(T)
    k0, k1 = _kept(state, s)
    if center_left:
        U *= s[:, None, :]
    else:
        Vh *= s[:, :, None]
    return s, k0, k1, (U[0, :, :k0], U[1, :, :k1]), (Vh[0, :k0], Vh[1, :k1])


def _gram_split(state: TensorState, T: np.ndarray, center_left: bool):
    """_svd_split's factors from one batched eigensolve of the sectors' Gram matrices, or None
    where that cannot resolve every kept value.  The Gram matrix is taken on the side that keeps
    the isometry: T^H T with center_left, whose eigenvectors V are the right singular vectors,
    so the factors are T V and V^H; T T^H otherwise, whose eigenvectors are the left ones, so
    the factors are V and V^H T.  Its eigenvalues are the squared singular values, and the
    product with T already carries them.
    """
    H = T.conj().swapaxes(1, 2)
    try:
        lam, vecs = np.linalg.eigh(H @ T if center_left else T @ H)
    except np.linalg.LinAlgError:
        return None
    s = np.sqrt(np.maximum(lam[:, ::-1], 0.0))  # eigh sorts ascending; roundoff can dip below 0
    k0, k1 = _kept(state, s)
    floor = GRAM_FLOOR * max(s[0, 0], s[1, 0])
    if any(k and s[q, k - 1] <= floor for q, k in enumerate((k0, k1))):
        return None
    lefts, rights = [], []
    for q, k in enumerate((k0, k1)):
        V = vecs[q, :, ::-1][:, :k]
        lefts.append(T[q] @ V if center_left else V)
        rights.append(V.conj().T if center_left else V.conj().T @ T[q])
    return s, k0, k1, lefts, rights


def _update_pair(state: TensorState, j: int, gate: np.ndarray, center_left: bool = False) -> None:
    """Apply a parity-preserving two-site unitary, given as one block of _pair_gates, to sites
    (j, j+1) in place and split the result by one batched factorization.

    The gate conserves parity, so the two-site block splits into one a x c
    matrix per parity of the cut; the gate mixes the two entrywise, with a
    2x2 mix for each pair of bond parities.  Both are factorized in one
    batched call and truncated together (_kept).  The singular values go to
    site j+1, or to site j with center_left, and the other site keeps the
    orthonormal factor, so the orthogonality center ends on that site.
    Truncation against the local singular values is only optimal when the
    center sits on the pair; apply_inverse_sequence keeps that invariant,
    direct callers are responsible for their own gauge.

    The factorization is one SVD, except where the maxChi cap can bind
    (2 min(a, c) > maxChi): there it is the cheaper eigensolve of the
    sectors' Gram matrices (_gram_split), the reduced-density-matrix route
    of DMRG.  Squaring the condition number leaves values below about
    sqrt(eps) times the largest unresolved, so that route is taken only when
    every kept value stays above GRAM_FLOOR times the largest; otherwise,
    and when the eigensolve fails, the same block goes through the SVD.
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
    del mix  # twice the sectors' size: freed so that it does not add to the factorization's peak memory
    split = None
    if state.maxChi > 0 and 2 * min(a, c) > state.maxChi:
        split = _gram_split(state, M[:, 0], center_left)
    s, k0, k1, lefts, rights = split or _svd_split(state, M[:, 0], center_left)
    keep = k0 + k1
    if keep < s.size:
        s0, s1 = s
        total = float(np.dot(s0, s0) + np.dot(s1, s1))
        if total > 0:
            state.discardedWeight += float(np.dot(s0[k0:], s0[k0:]) + np.dot(s1[k1:], s1[k1:])) / total
    state.matrices[j] = np.concatenate(lefts, axis=1)
    state.matrices[j + 1] = np.concatenate(rights)
    state.even[j + 1] = k0
    state.maxBondSeen = max(state.maxBondSeen, keep)


def apply_inverse_sequence(state: TensorState, result: FoldResult) -> None:
    """Undo the fold's rotation bundle: its site-pair blocks in reverse order, each undone.

    Each block is multiplied into one two-site unitary, zero angles included
    as exact identity factors, and applied with one SVD.  Reversed, the
    fold's rows are staircases of alternating direction, each starting on the
    pair next to where the previous one ended, so consecutive blocks sit at
    most one pair apart.  Each update leaves the orthogonality center on the
    site its pair shares with the next block's pair, and the product state is
    canonical at every site, so every truncation happens against genuine
    Schmidt coefficients with no gauge step in between.  Blocks that leave
    the chain or skip a pair raise ValueError before the state is touched.
    """
    blocks = result.blocks[::-1]
    pairs = blocks.pair
    if np.any((pairs < 0) | (pairs > state.sites - 2)):
        raise ValueError(f"blocks act outside the chain of {state.sites} sites")
    moves = np.diff(pairs)
    if np.any(np.abs(moves) > 1):
        raise ValueError("a block skips past the orthogonality center; the fold's rows never do")
    center_left = np.append(moves < 0, False).tolist()
    for j, gate, left in zip(pairs.tolist(), _pair_gates(result.roles[::-1], blocks.angles), center_left):
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


@dataclass(frozen=True)
class ObservableReport:
    """Observables of one solved parameter point."""

    eec: float
    occupancy: np.ndarray
    maxBond: int

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=float).copy()
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        if self.eec < 0:
            raise ValueError(f"eec must be nonnegative, got {self.eec}")


def covariance(state: TensorState) -> tuple:
    """(Gamma, leakage) of a vacuum-normalized state, read in one left-to-right sweep.

    With modes a < b (0-based) exactly occupied, z0 times the amplitude is
    p_ab Gamma_ab: p_ab is 1 for odd b - a, else i for even a and -i for odd a.
    Gamma is the real part of z0 c_ab / p_ab, leakage its imaginary part, both
    as antisymmetric 2N x 2N arrays.  The sweep carries the all-empty prefix and
    one open row per earlier occupied mode, and closes each row at its second
    occupied mode against the all-empty suffix to the right.
    """
    if state.z0 == 0:
        raise ValueError("state is not vacuum-normalized; call normalize_vacuum first")
    n2, even = state.sites, state.even
    right = [np.ones(even[n2], dtype=complex)]  # all-empty suffixes, on each bond's even sector
    for j in range(n2 - 1, 0, -1):
        right.append(state.matrices[j][:even[j], :even[j + 1]] @ right[-1])
    right.reverse()
    amp = np.zeros((n2, n2), dtype=complex)
    vac, opened = np.ones((1, 1), dtype=complex), np.zeros((0, 0), dtype=complex)
    for j, (M, env) in enumerate(zip(state.matrices, right)):
        e, e1 = even[j], even[j + 1]
        amp[:j, j] = opened @ (M[e:, :e1] @ env)
        opened = np.concatenate((opened @ M[e:, e1:], vac @ M[:e, e1:]))
        vac = vac @ M[:e, :e1]
    a, b = np.indices((n2, n2))
    phase = np.where((b - a) % 2 == 1, 1.0, np.where(a % 2 == 0, 1j, -1j))
    values = np.triu(state.z0 * amp / phase, 1)
    return values.real - values.real.T, values.imag - values.imag.T


def build_report(state: TensorState) -> ObservableReport:
    """Every observable of a vacuum-normalized state: spectral.gaussian_report applied to the
    covariance swept off it.  UnphysicalReadout refuses an occupancy with complex leakage or
    outside [0, 1]."""
    gamma, leakage = covariance(state)
    # the floor refuses leakage above roundoff on exact-tolerance runs; a capped row's tolerance
    # is of order 1 and refuses almost nothing: at (N, w, mu) = (11, 0.99, 1.85) with maxChi 6,
    # leakage 3.0e-3 passes a tolerance of 2.36 on a row whose Gamma is off by 8.3e-2
    imag_tol = max(IMAG_TOL, 10.0 * float(np.sqrt(max(state.discardedWeight, 0.0))))
    eec, occupancy = gaussian_report(gamma)
    for j, (leak, occ) in enumerate(zip(np.diag(leakage[0::2, 1::2]), occupancy), start=1):
        if abs(leak) > imag_tol:
            raise UnphysicalReadout(f"occupancy at site {j} has imaginary part {leak:.3e}")
        if occ < -1e-8 or occ > 1 + 1e-8:
            raise UnphysicalReadout(f"occupancy at site {j} is {float(occ)!r}, outside [0,1]")
    return ObservableReport(eec=eec, occupancy=occupancy, maxBond=int(state.maxBondSeen))
