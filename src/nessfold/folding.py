"""Reduction of the transfer stack into same-parity Givens rotations of neighboring sites.

The fold works on the transfer stack in its real gauge,
[(I - Q')/2 | (I + Q')/2] on the odd and even Majoranas with Q' = S Gamma S
(spectral.TransferStack.W): the rotations it applies never mix an odd with an
even Majorana, so the physical stack's common factor i on the even columns
rides along untouched.  Row l of the stack is cleared one site pair at a
time onto one free site, which it then pins: odd rows onto the leftmost free
site, even rows onto the rightmost, so the free sites stay one contiguous
run.  Inside a pair (s, s+1) two real Givens rotations push the far site's
entries onto the near one, one on the odd Majoranas (gamma~_{2s-1},
gamma~_{2s+1}) and one on the even ones (gamma~_{2s}, gamma~_{2s+2}),
1-based.  Closure then pins the surviving pair to a single fermionic mode,
which never acts again in a lower row (nilpotency), so each row is cleared
inside the live block: the rows not yet closed, on the free sites.  Each
cleared site pair leaves one block of two angles; in application order the
blocks define the bundled transformation whose inverse rebuilds the
stationary state, each one two-site gate; reversed, the rows alternate
between ascending and descending staircases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin

import numpy as np

from .exceptions import ClosureViolation
from .spectral import TransferStack

EPS_FOLD_DEFAULT = 1e-10

# One block per cleared site pair (j, j+1), 0-based: the Givens angles on its odd Majoranas
# (gamma~_{2j+1}, gamma~_{2j+3}) and on its even ones (gamma~_{2j+2}, gamma~_{2j+4}), 1-based.
BLOCK_DTYPE = np.dtype([("pair", np.int64), ("angles", np.float64, 2)])


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
        """Read-only (m, theta, kind) records, two per block, each a rotation of
        (gamma~_{m-2}, gamma~_m) by theta, built on each access: a block on pair j has the
        "odd" record m = 2j+3, then the "even" one m = 2j+4."""
        b = self.blocks
        m = 2 * b.pair[:, None] + np.array([3, 4])
        records = np.rec.fromarrays([m.ravel(), b.angles.ravel(), np.tile(["odd", "even"], len(b))],
                                    names="m,theta,kind")
        records.setflags(write=False)
        return records


def eliminate_pair(W: np.ndarray, l: int, k: int) -> list:
    """Zero row l on site k+1's columns 2k+1, 2k+2 in place, rotating only columns 2k-1..2k+2.

    Two Givens rotations, on the odd columns (2k-1, 2k+1) and on the even
    ones (2k, 2k+2), each by atan2(cleared entry, kept entry) of row l, which
    leaves the kept entry nonnegative.  Each rotates its two columns (a, b)
    of every row to (a c + b s, b c - a s).  Returns the two angles, odd
    first.
    """
    cols = W[:, 2 * k - 2:2 * k + 2]
    kept, cleared = cols[:, :2], cols[:, 2:]
    x0, x1, x2, x3 = cols[l - 1].tolist()
    angles = [atan2(x2, x0), atan2(x3, x1)]
    c, s = np.array([cos(t) for t in angles]), np.array([sin(t) for t in angles])
    new_kept = kept * c + cleared * s
    cleared[...] = cleared * c - kept * s
    kept[...] = new_kept
    return angles


def close_row(W: np.ndarray, l: int, site: int, eps_fold: float = EPS_FOLD_DEFAULT) -> int:
    """Return the sign s with W[l][2s-1] = -s*W[l][2s] on row l's pinned site, or raise.

    The real stack's rows are isotropic in the form (odd entries)^2 - (even
    entries)^2, so a pinned pair (x, y) obeys x^2 = y^2; sign +1, x = -y, is
    the occupied mode.  W is only read: once row l creates its mode, the same
    pair can never act again in lower rows (fermionic nilpotency), so their
    coefficients there are irrelevant and the fold leaves them where they are.
    """
    x, y = W[l - 1, 2 * site - 2:2 * site].tolist()
    err_plus, err_minus = abs(x + y), abs(x - y)
    if not min(err_plus, err_minus) <= eps_fold:
        raise ClosureViolation(
            f"row pair ({x:.3e}, {y:.3e}) violates closure by "
            f"{min(err_plus, err_minus):.3e} (tolerance {eps_fold:.3e})"
        )
    return 1 if err_plus <= err_minus else -1


def fold(stack: TransferStack, eps_fold: float = EPS_FOLD_DEFAULT) -> FoldResult:
    """Reduce the stack in its real gauge: fold_real of a fresh stack.W."""
    return fold_real(stack.W, eps_fold)


@np.errstate(invalid="ignore", over="ignore")  # a rotated inf is a quiet nan or inf, refused below
def fold_real(W: np.ndarray, eps_fold: float = EPS_FOLD_DEFAULT) -> FoldResult:
    """Reduce a real 2N x 4N stack in place, recording every site pair's block (zero angles
    included).

    One loop clears and closes every row in order, odd rows onto the leftmost
    free site lo and even rows onto the rightmost hi; row 2N finds one free
    site left and no pair to clear.  Row l is cleared inside the live block,
    the rows l..2N on the columns of sites lo..hi, so a closed row's site
    simply leaves it.  An odd row's pair k (1-based, within the block) gives
    the block (lo-2+k, angles); an even row is cleared on the block's
    column-reversed view, where each site's even column comes first, and
    gives (hi-1-k, -angles) with its two angles swapped back to odd first.
    Every interior row closes on (r, r), r > 0, so with sign -1.  rDiag
    stores the magnitude of each row's pinned weight.  residual is the
    largest entry any row keeps on its other free sites, read as that row
    closes.
    """
    N = len(W) // 2
    blocks = np.zeros(N * (2 * N - 1), dtype=BLOCK_DTYPE)
    angles = blocks["angles"]
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
        if odd:
            row["pair"] = np.arange(hi - 2, lo - 2, -1)
        else:
            row["pair"] = np.arange(lo - 1, hi - 1)
            row["angles"] = -row["angles"][:, ::-1]
        rDiag[l - 1] = abs(view[0, 1])
        if not rDiag[l - 1] >= eps_fold:
            raise ClosureViolation(f"row {l} weight {rDiag[l - 1]:.3e} below {eps_fold:.3e}")
        residual = max(residual, float(np.abs(view[0, 2:]).max(initial=0.0)))
        site = sites[l - 1] = lo if odd else hi
        signs[l - 1] = close_row(W, l, site, eps_fold)
        lo, hi = (lo + 1, hi) if odd else (lo, hi - 1)

    blocks = blocks.view(np.recarray)
    for arr in (blocks, rDiag, signs, sites):
        arr.setflags(write=False)
    return FoldResult(blocks=blocks, rDiag=rDiag, signs=signs, sites=sites, residual=residual)
