"""Reduction of the transfer stack into next-neighbor Majorana rotations.

Each rotation mixes the neighboring mode pair (gamma~_{m-1}, gamma~_m) by a
real angle.  Row l of the stack is cleared one site pair at a time onto one
free site, which it then pins: odd rows onto the leftmost free site, even
rows onto the rightmost, so the free sites stay one contiguous run.  Inside
a pair three U-rotations strip the complex phases and two V-rotations push
the real parts off the far site's two columns, all inside the pair's four
columns.  Closure then pins the surviving pair to a single fermionic mode,
which never acts again in a lower row (nilpotency), so each row is cleared
inside the live block: the rows not yet closed, on the free sites.  Each
cleared site pair leaves one block of five steps, a role and an angle each;
in application order the blocks define the bundled transformation whose
inverse rebuilds the stationary state, each one two-site gate; reversed,
the rows alternate between ascending and descending staircases.
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

# One block per cleared site pair (j, j+1), 0-based: the role of each step of _PAIR_STEPS, where
# it acts on the stack's own columns (0 a phase on the pair's left site, 1 the rotation mixing
# its two sites, 2 a phase on its right site), and the steps' angles on those columns.
BLOCK_DTYPE = np.dtype([("pair", np.int64), ("roles", np.int8, len(_PAIR_STEPS)),
                        ("angles", np.float64, len(_PAIR_STEPS))])


@dataclass(frozen=True)
class FoldResult:
    """Site-pair blocks (read-only record array of BLOCK_DTYPE, application order; row l
    contributes the next 2N - l), the only stored form of the fold's steps; per-row weights,
    closure signs, pinned sites (1-based), and the largest entry any row keeps on its other
    free sites, read as that row closes."""

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
        built on each access: a step of role r in a block on pair j has m = 2j+2+r."""
        kinds = np.array([kind for _, kind in _PAIR_STEPS])
        b = self.blocks
        m = 2 * b.pair[:, None] + 2 + b.roles
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
    on W's own column order.  The five angles come from row l's four entries
    as scalars, the steps of _PAIR_STEPS unrolled.  Their product, the pair's
    4x4 orthogonal matrix, is written out in closed form: each entry is the
    product that rotating the identity step by step forms, factor for factor
    and in the same order, less its exact 0 and 1 factors, so the result is
    bit for bit that of the step-by-step update.  It reaches every row of the
    four columns in one in-place matmul.  Returns the angles in _PAIR_STEPS
    order.
    """
    cols = W[:, 2 * k - 2:2 * k + 2]
    x0, x1, x2, x3 = cols[l - 1].tolist()
    t1 = atan2(x3.imag, x2.imag)  # U on local columns (2, 3)
    c1, s1 = cos(t1), sin(t1)
    x2, x3 = x2 * c1 + x3 * s1, x3 * c1 - x2 * s1
    t2 = atan2(x2.imag, x1.imag)  # U on (1, 2)
    c2, s2 = cos(t2), sin(t2)
    x1, x2 = x1 * c2 + x2 * s2, x2 * c2 - x1 * s2
    t3 = atan2(x1.imag, x0.imag)  # U on (0, 1)
    c3, s3 = cos(t3), sin(t3)
    x1 = x1 * c3 - x0 * s3
    t4 = atan2(x3.real, x2.real)  # V on (2, 3)
    c4, s4 = cos(t4), sin(t4)
    x2 = x2 * c4 + x3 * s4
    t5 = atan2(x2.real, x1.real)  # V on (1, 2)
    c5, s5 = cos(t5), sin(t5)
    c1c2, s1c2, c1s2, s1s2, c2c3, s2c4 = c1 * c2, s1 * c2, c1 * s2, s1 * s2, c2 * c3, s2 * c4
    c1s2c3, s1s2c3 = c1s2 * c3, s1s2 * c3
    r2, r3 = c1c2 * c4 - s1 * s4, s1c2 * c4 + c1 * s4  # rows 2 and 3 of column 2 before step 5
    # complex, so that matmul casts nothing; the cast of a real entry is exact
    Q = np.array((c3, -s3 * c5, s3 * s5, 0.0,
                  c2 * s3, c2c3 * c5 - s2c4 * s5, -s2c4 * c5 - c2c3 * s5, s2 * s4,
                  c1s2 * s3, c1s2c3 * c5 + r2 * s5, r2 * c5 - c1s2c3 * s5, -s1 * c4 - c1c2 * s4,
                  s1s2 * s3, s1s2c3 * c5 + r3 * s5, r3 * c5 - s1s2c3 * s5, c1 * c4 - s1c2 * s4),
                 dtype=complex).reshape(4, 4)
    np.matmul(cols, Q, out=cols)
    return [t1, t2, t3, t4, t5]


def close_row(W: np.ndarray, l: int, site: int, eps_fold: float = EPS_FOLD_DEFAULT) -> int:
    """Return the sign s with W[l][2s-1] = s*i*W[l][2s] on row l's pinned site, or raise.

    Row self-orthogonality forces the pair (a, b) to obey a^2 + b^2 = 0.
    W is only read: once row l creates its mode, the same pair can never act
    again in lower rows (fermionic nilpotency), so their coefficients there
    are irrelevant and the fold leaves them where they are.
    """
    a, b = W[l - 1, 2 * site - 2], W[l - 1, 2 * site - 1]
    err_plus, err_minus = abs(a - 1j * b), abs(a + 1j * b)
    if min(err_plus, err_minus) > eps_fold:
        raise ClosureViolation(
            f"row pair ({a:.3e}, {b:.3e}) violates closure by "
            f"{min(err_plus, err_minus):.3e} (tolerance {eps_fold:.3e})"
        )
    return 1 if err_plus <= err_minus else -1


def fold(stack: TransferStack, eps_fold: float = EPS_FOLD_DEFAULT) -> FoldResult:
    """Reduce the full stack, recording every site pair's block (zero angles included).

    One loop clears and closes every row in order, odd rows onto the leftmost
    free site lo and even rows onto the rightmost hi; row 2N finds one free
    site left and no pair to clear.  Row l is cleared inside the live block,
    the rows l..2N on the columns of sites lo..hi, so a closed row's site
    simply leaves it.  An odd row's pair k (1-based, within the block) gives
    the block (lo-2+k, columns, angles), its roles the local columns of
    _PAIR_STEPS; an even row is cleared on the block's column-reversed view
    and gives (hi-1-k, 2 - columns, -angles).  The sign of a right-pinned row
    is read on the unreversed columns, so an interior one closes -1.  rDiag
    stores the magnitude of each row's pinned weight: the rotations leave an
    interior row's weight real and positive, while row 2N may keep a phase
    that no rotation removes.  residual is the largest entry any row keeps on
    its other free sites, read as that row closes.
    """
    N = stack.N
    W = np.array(stack.R, dtype=complex)
    blocks = np.zeros(N * (2 * N - 1), dtype=BLOCK_DTYPE)
    angles = blocks["angles"]
    columns = np.array([i for i, _ in _PAIR_STEPS])
    b = 0  # the next block
    rDiag = np.zeros(2 * N)
    signs = np.zeros(2 * N, dtype=int)
    sites = np.zeros(2 * N, dtype=int)
    residual = 0.0
    lo, hi = 1, 2 * N  # the free sites

    for l in range(1, 2 * N + 1):
        odd = l % 2 == 1
        live = W[l - 1:, 2 * lo - 2:2 * hi]
        view = live if odd else live[:, ::-1]
        first = b
        for k in range(hi - lo, 0, -1):
            angles[b] = eliminate_pair(view, 1, k)
            b += 1
        row = blocks[first:b]
        row["roles"] = columns if odd else 2 - columns
        if odd:
            row["pair"] = np.arange(hi - 2, lo - 2, -1)
        else:
            row["pair"] = np.arange(lo - 1, hi - 1)
            row["angles"] = -row["angles"]
        rDiag[l - 1] = abs(view[0, 1])
        if rDiag[l - 1] < eps_fold:
            raise ClosureViolation(f"row {l} weight {rDiag[l - 1]:.3e} below {eps_fold:.3e}")
        residual = max(residual, float(np.abs(view[0, 2:]).max(initial=0.0)))
        site = sites[l - 1] = lo if odd else hi
        signs[l - 1] = close_row(W, l, site, eps_fold)
        lo, hi = (lo + 1, hi) if odd else (lo, hi - 1)

    blocks = blocks.view(np.recarray)
    for arr in (blocks, rDiag, signs, sites):
        arr.setflags(write=False)
    return FoldResult(blocks=blocks, rDiag=rDiag, signs=signs, sites=sites, residual=residual)
