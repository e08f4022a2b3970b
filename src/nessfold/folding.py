"""Reduction of the transfer stack into next-neighbor Majorana rotations.

Each rotation mixes the neighboring mode pair (gamma~_{m-1}, gamma~_m) by a
real angle.  Row l of the stack is cleared one site pair at a time onto one
free site, which it then pins: odd rows onto the leftmost free site, even
rows onto the rightmost, so the free sites stay one contiguous run.  Inside
a pair three U-rotations strip the complex phases and two V-rotations push
the real parts off the far site's two columns, all inside the pair's four
columns.  Closure then pins the surviving pair to a single fermionic mode,
after which the pinned site's columns can be zeroed in every lower row
(nilpotency).  The recorded rotation sequence, in application order, defines
the bundled transformation whose inverse rebuilds the stationary state; its
five records per site pair replay as one two-site gate, and reversed, the
rows alternate between ascending and descending staircases of such gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin

import numpy as np

from .exceptions import ClosureViolation
from .spectral import TransferStack

EPS_FOLD_DEFAULT = 1e-10

# One record per rotation of the pair (gamma~_{m-1}, gamma~_m) by angle theta.
# kind is "U" for phase-stripping rotations and "V" for eliminating ones; both
# act identically on coefficients.
ROTATION_DTYPE = np.dtype([("m", np.int64), ("theta", np.float64), ("kind", "U1")])


@dataclass(frozen=True)
class FoldResult:
    """Recorded rotations (read-only record array, application order), per-row weights,
    closure signs and pinned sites (1-based)."""

    rotations: np.recarray
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


# The five rotations of one site pair, as (first of the two local columns, kind), in
# application order: U at m = 2k+2, 2k+1, 2k, then V at m = 2k+2, 2k+1.
_PAIR_STEPS = ((2, "U"), (1, "U"), (0, "U"), (2, "V"), (1, "V"))


def eliminate_pair(W: np.ndarray, l: int, k: int) -> list:
    """Zero row l on site k+1's columns 2k+1, 2k+2 in place, rotating only columns 2k-1..2k+2.

    The U-rotations take angle atan2(Im b, Im a) on the columns (a, b) they
    mix, zeroing Im b and leaving Im a nonnegative; the V-rotations then take
    atan2(Re b, Re a) on the now real columns.  After the row's last pair,
    site k's column 2k-1 keeps a nonnegative imaginary part and column 2k a
    nonnegative real one, which is the gauge that closes the row with sign +1
    on W's own column order.  The five angles come
    from row l's four entries as scalars and reach every row as one 4x4
    orthogonal product.  Returns the (m, theta, kind) records in application
    order.
    """
    c0 = 2 * k - 2
    x = W[l - 1, c0:c0 + 4].tolist()
    Q = [[float(i == j) for j in range(4)] for i in range(4)]
    records = []
    for i, kind in _PAIR_STEPS:
        a, b = x[i], x[i + 1]
        theta = atan2(b.imag, a.imag) if kind == "U" else atan2(b.real, a.real)
        c, s = cos(theta), sin(theta)
        x[i], x[i + 1] = a * c + b * s, b * c - a * s
        for q in Q:
            q[i], q[i + 1] = q[i] * c + q[i + 1] * s, q[i + 1] * c - q[i] * s
        records.append((c0 + i + 2, theta, kind))
    W[:, c0:c0 + 4] = W[:, c0:c0 + 4] @ np.array(Q)
    return records


def _closure_sign(a: complex, b: complex, eps_fold: float) -> int:
    """Sign s with a = s*i*b, or raise.  Row self-orthogonality forces a^2 + b^2 = 0."""
    err_plus = abs(a - 1j * b)
    err_minus = abs(a + 1j * b)
    if min(err_plus, err_minus) > eps_fold:
        raise ClosureViolation(
            f"row pair ({a:.3e}, {b:.3e}) violates closure by "
            f"{min(err_plus, err_minus):.3e} (tolerance {eps_fold:.3e})"
        )
    return 1 if err_plus <= err_minus else -1


def close_row(W: np.ndarray, l: int, site: int, eps_fold: float = EPS_FOLD_DEFAULT) -> int:
    """Verify W[l][2s-1] = +-i W[l][2s] on row l's pinned site s, then zero site s's
    columns in the rows below in place.

    Zeroing is exact, not approximate: once row l creates its mode, the same
    pair can never act again in lower rows (fermionic nilpotency), so their
    coefficients there are irrelevant.
    """
    sign = _closure_sign(W[l - 1, 2 * site - 2], W[l - 1, 2 * site - 1], eps_fold)
    W[l:, 2 * site - 2:2 * site] = 0.0
    return sign


def _pattern_residual(W: np.ndarray, sites: np.ndarray) -> float:
    """Largest magnitude outside each row's pinned-site columns."""
    mask = np.ones(W.shape, dtype=bool)
    for row, site in enumerate(sites.tolist()):
        mask[row, 2 * site - 2:2 * site] = False
    return float(np.abs(W[mask]).max(initial=0.0))


def fold(stack: TransferStack, eps_fold: float = EPS_FOLD_DEFAULT) -> FoldResult:
    """Reduce the full stack, recording every rotation (zero angles included).

    Rows 1..2N-1 are cleared pair by pair and closed in order, odd rows onto
    the leftmost free site and even rows onto the rightmost; row 2N is
    already confined to the one site left, so it only gets the closure check.
    An even row is cleared by eliminate_pair on the column-reversed view,
    where a record (m, theta) acts as (4N+2-m, -theta) on the stack.  The
    sign of a right-pinned interior row is read on the unreversed columns,
    so it closes -1.  Row 2N's surviving entry may carry a residual phase
    that no rotation removes, hence rDiag stores its magnitude there.
    """
    N = stack.N
    W = np.array(stack.R, dtype=complex)
    mirror = W[:, ::-1]
    records = []
    rDiag = np.zeros(2 * N)
    signs = np.zeros(2 * N, dtype=int)
    sites = np.zeros(2 * N, dtype=int)
    lo, hi = 1, 2 * N  # the free sites

    for l in range(1, 2 * N):
        if l % 2:
            view, first, last, site = W, lo, hi, lo
            lo += 1
        else:
            view, first, last, site = mirror, 2 * N + 1 - hi, 2 * N + 1 - lo, hi
            hi -= 1
        for k in range(last - 1, first - 1, -1):
            block = eliminate_pair(view, l, k)
            records += block if view is W else [(4 * N + 2 - m, -theta, kind) for m, theta, kind in block]
        r = view[l - 1, 2 * first - 1]
        if abs(r) < eps_fold:
            raise ClosureViolation(f"row {l} weight {abs(r):.3e} below {eps_fold:.3e}")
        rDiag[l - 1] = r.real
        signs[l - 1] = close_row(W, l, site, eps_fold)
        sites[l - 1] = site

    last = W[2 * N - 1, 2 * lo - 1]
    if abs(last) < eps_fold:
        raise ClosureViolation(f"row {2 * N} weight {abs(last):.3e} below {eps_fold:.3e}")
    rDiag[2 * N - 1] = abs(last)
    signs[2 * N - 1] = _closure_sign(W[2 * N - 1, 2 * lo - 2], last, eps_fold)
    sites[2 * N - 1] = lo

    rotations = np.rec.fromrecords(records, dtype=ROTATION_DTYPE)
    for arr in (rotations, rDiag, signs, sites):
        arr.setflags(write=False)
    return FoldResult(
        rotations=rotations,
        rDiag=rDiag,
        signs=signs,
        sites=sites,
        residual=_pattern_residual(W, sites),
    )
