"""Reduction of the transfer stack into next-neighbor Majorana rotations.

Each rotation mixes the neighboring mode pair (gamma~_{m-1}, gamma~_m) by a
real angle.  Row l of the stack is cleared one site pair at a time onto one
free site, which it then pins: odd rows onto the leftmost free site, even
rows onto the rightmost, so the free sites stay one contiguous run.  Inside
a pair three U-rotations strip the complex phases and two V-rotations push
the real parts off the far site's two columns, all inside the pair's four
columns.  Closure then pins the surviving pair to a single fermionic mode,
after which the pinned site's columns can be zeroed in every lower row
(nilpotency).  Each cleared site pair leaves one block of five angles; in
application order the blocks define the bundled transformation whose inverse
rebuilds the stationary state, each replays as one two-site gate, and
reversed, the rows alternate between ascending and descending staircases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin

import numpy as np

from .exceptions import ClosureViolation
from .spectral import TransferStack

EPS_FOLD_DEFAULT = 1e-10

# The five rotations of one site pair, as (first of the two local columns, kind), in
# application order.  kind is "U" for phase-stripping rotations and "V" for eliminating
# ones; both act identically on coefficients.  Local column 1 mixes the two sites.
_PAIR_STEPS = ((2, "U"), (1, "U"), (0, "U"), (2, "V"), (1, "V"))

# One block per cleared site pair (j, j+1), 0-based: whether its row was cleared on the
# mirrored columns, and the angles of _PAIR_STEPS as they act on the stack's own columns.
BLOCK_DTYPE = np.dtype([("pair", np.int64), ("mirrored", bool), ("angles", np.float64, len(_PAIR_STEPS))])


@dataclass(frozen=True)
class FoldResult:
    """Site-pair blocks (read-only record array of BLOCK_DTYPE, application order; row l
    contributes the next 2N - l), per-row weights, closure signs and pinned sites (1-based)."""

    blocks: np.recarray
    rDiag: np.ndarray
    signs: np.ndarray
    sites: np.ndarray
    residual: float

    @property
    def bits(self) -> list:
        """Occupations of the product state the replay starts from, site by site: each
        row's closure bit (1 for sign +1) on the site it pinned."""
        bits = [0] * len(self.sites)
        for site, sign in zip(self.sites.tolist(), self.signs.tolist()):
            bits[site - 1] = (1 + sign) // 2
        return bits

    @property
    def rotations(self) -> np.recarray:
        """Read-only (m, theta, kind) records, one per rotation of (gamma~_{m-1}, gamma~_m) by theta,
        built on each access: a step on local column i of a block on pair j has m = 2j+2+i, or
        2j+4-i when mirrored."""
        columns, kinds = (np.array(t) for t in zip(*_PAIR_STEPS))
        b = self.blocks
        m = 2 * b.pair[:, None] + np.where(b.mirrored[:, None], 4 - columns, 2 + columns)
        records = np.rec.fromarrays([m.ravel(), b.angles.ravel(), np.tile(kinds, len(b))],
                                    names="m,theta,kind")
        records.setflags(write=False)
        return records


def eliminate_pair(W: np.ndarray, l: int, k: int) -> list:
    """Zero row l on site k+1's columns 2k+1, 2k+2 in place, rotating only columns 2k-1..2k+2.

    The U-rotations take angle atan2(Im b, Im a) on the columns (a, b) they
    mix, zeroing Im b and leaving Im a nonnegative; the V-rotations then take
    atan2(Re b, Re a) on the now real columns.  After the row's last pair,
    site k's column 2k-1 keeps a nonnegative imaginary part and column 2k a
    nonnegative real one, which is the gauge that closes the row with sign +1
    on W's own column order.  The five angles come
    from row l's four entries as scalars and reach every row as one 4x4
    orthogonal product.  Returns the angles in _PAIR_STEPS order.
    """
    c0 = 2 * k - 2
    x = W[l - 1, c0:c0 + 4].tolist()
    Q = [[float(i == j) for j in range(4)] for i in range(4)]
    angles = []
    for i, kind in _PAIR_STEPS:
        a, b = x[i], x[i + 1]
        theta = atan2(b.imag, a.imag) if kind == "U" else atan2(b.real, a.real)
        c, s = cos(theta), sin(theta)
        x[i], x[i + 1] = a * c + b * s, b * c - a * s
        for q in Q:
            q[i], q[i + 1] = q[i] * c + q[i + 1] * s, q[i + 1] * c - q[i] * s
        angles.append(theta)
    W[:, c0:c0 + 4] = W[:, c0:c0 + 4] @ np.array(Q)
    return angles


def close_row(W: np.ndarray, l: int, site: int, eps_fold: float = EPS_FOLD_DEFAULT) -> int:
    """Return the sign s with W[l][2s-1] = s*i*W[l][2s] on row l's pinned site, or raise,
    then zero that site's columns in the rows below in place.

    Row self-orthogonality forces the pair (a, b) to obey a^2 + b^2 = 0.
    Zeroing is exact, not approximate: once row l creates its mode, the same
    pair can never act again in lower rows (fermionic nilpotency), so their
    coefficients there are irrelevant.
    """
    a, b = W[l - 1, 2 * site - 2], W[l - 1, 2 * site - 1]
    err_plus, err_minus = abs(a - 1j * b), abs(a + 1j * b)
    if min(err_plus, err_minus) > eps_fold:
        raise ClosureViolation(
            f"row pair ({a:.3e}, {b:.3e}) violates closure by "
            f"{min(err_plus, err_minus):.3e} (tolerance {eps_fold:.3e})"
        )
    W[l:, 2 * site - 2:2 * site] = 0.0
    return 1 if err_plus <= err_minus else -1


def _pattern_residual(W: np.ndarray, sites: np.ndarray) -> float:
    """Largest magnitude outside each row's pinned-site columns."""
    mask = np.ones(W.shape, dtype=bool)
    for row, site in enumerate(sites.tolist()):
        mask[row, 2 * site - 2:2 * site] = False
    return float(np.abs(W[mask]).max(initial=0.0))


def fold(stack: TransferStack, eps_fold: float = EPS_FOLD_DEFAULT) -> FoldResult:
    """Reduce the full stack, recording every site pair's block (zero angles included).

    One loop clears and closes every row in order, odd rows onto the leftmost
    free site and even rows onto the rightmost; row 2N finds one free site
    left and no pair to clear.  A row's pair k (1-based) gives the block
    (k-1, plain, angles), or, for an even row cleared on the column-reversed
    view, (2N-1-k, mirrored, -angles) on the stack.  The sign of a
    right-pinned row is read on the unreversed columns, so an interior one
    closes -1.  rDiag stores the magnitude of each row's pinned weight: the
    rotations leave an interior row's weight real and positive, while row 2N
    may keep a phase that no rotation removes.
    """
    N = stack.N
    W = np.array(stack.R, dtype=complex)
    mirror = W[:, ::-1]
    blocks = []
    rDiag = np.zeros(2 * N)
    signs = np.zeros(2 * N, dtype=int)
    sites = np.zeros(2 * N, dtype=int)
    lo, hi = 1, 2 * N  # the free sites

    for l in range(1, 2 * N + 1):
        if l % 2:
            view, first, last, site = W, lo, hi, lo
            lo += 1
        else:
            view, first, last, site = mirror, 2 * N + 1 - hi, 2 * N + 1 - lo, hi
            hi -= 1
        for k in range(last - 1, first - 1, -1):
            angles = eliminate_pair(view, l, k)
            blocks.append((k - 1, False, angles) if l % 2 else (2 * N - 1 - k, True, [-t for t in angles]))
        rDiag[l - 1] = abs(view[l - 1, 2 * first - 1])
        if rDiag[l - 1] < eps_fold:
            raise ClosureViolation(f"row {l} weight {rDiag[l - 1]:.3e} below {eps_fold:.3e}")
        signs[l - 1] = close_row(W, l, site, eps_fold)
        sites[l - 1] = site

    blocks = np.rec.fromrecords(blocks, dtype=BLOCK_DTYPE)
    for arr in (blocks, rDiag, signs, sites):
        arr.setflags(write=False)
    return FoldResult(
        blocks=blocks,
        rDiag=rDiag,
        signs=signs,
        sites=sites,
        residual=_pattern_residual(W, sites),
    )
