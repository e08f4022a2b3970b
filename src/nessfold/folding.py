"""Reduction of the transfer stack into next-neighbor Majorana rotations.

Each rotation mixes the neighboring mode pair (gamma~_{m-1}, gamma~_m) by a
real angle.  Row l of the stack is processed in three moves: U-rotations strip
the complex phases of its active columns, V-rotations eliminate all but the
last surviving pair, and closure pins the pair to a single fermionic mode,
after which the pair columns can be zeroed in every lower row (nilpotency).
The recorded rotation sequence, in application order, defines the bundled
transformation whose inverse rebuilds the stationary state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2

import numpy as np

from .exceptions import ClosureViolation, StackDegenerate
from .spectral import TransferStack

EPS_FOLD_DEFAULT = 1e-10

# One record per rotation of the pair (gamma~_{m-1}, gamma~_m) by angle theta.
# kind is "U" for phase-stripping rotations and "V" for eliminating ones; both
# act identically on coefficients.
ROTATION_DTYPE = np.dtype([("m", np.int64), ("theta", np.float64), ("kind", "U1")])


@dataclass(frozen=True)
class FoldResult:
    """Recorded rotations (read-only record array, application order), per-row weights and closure signs."""

    rotations: np.recarray
    rDiag: np.ndarray
    signs: np.ndarray
    residual: float


def _rotate_inplace(R: np.ndarray, m: int, theta: float) -> None:
    c = np.cos(theta)
    s = np.sin(theta)
    a = R[:, m - 2].copy()
    b = R[:, m - 1]
    R[:, m - 2] = a * c + b * s
    R[:, m - 1] = b * c - a * s


def _sweep_row(W: np.ndarray, l: int, last_m: int, kind: str) -> list:
    """Rotate pairs 4N down to last_m in place, each angle chosen from row l."""
    row = l - 1
    records = []
    for m in range(W.shape[1], last_m - 1, -1):
        a, b = W[row, m - 2], W[row, m - 1]
        theta = atan2(b.imag, a.imag) if kind == "U" else atan2(b.real, a.real)
        _rotate_inplace(W, m, theta)
        records.append((m, theta, kind))
    return records


def strip_phases_row(W: np.ndarray, l: int) -> list:
    """Make columns 2l..4N of row l real in place by sweeping U-rotations from the right.

    The angle atan2(Im W[l][m], Im W[l][m-1]) zeroes the imaginary part of
    column m and leaves column m-1 with nonnegative imaginary part, which
    fixes the gauge; a fully real pair records a zero angle.  Returns the
    (m, theta, kind) records in application order.
    """
    return _sweep_row(W, l, 2 * l, "U")


def eliminate_row(W: np.ndarray, l: int) -> list:
    """Zero columns 2l+1..4N of row l (already real there) in place with V-rotations."""
    return _sweep_row(W, l, 2 * l + 1, "V")


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


def close_row(W: np.ndarray, l: int, eps_fold: float = EPS_FOLD_DEFAULT) -> int:
    """Verify W[l][2l-1] = +-i W[l][2l], then zero the pair columns in the rows below in place.

    Zeroing is exact, not approximate: once row l creates its mode, the same
    pair can never act again in lower rows (fermionic nilpotency), so their
    coefficients there are irrelevant.
    """
    row = l - 1
    sign = _closure_sign(W[row, 2 * l - 2], W[row, 2 * l - 1], eps_fold)
    W[l:, 2 * l - 2:2 * l] = 0.0
    return sign


def _pattern_residual(W: np.ndarray) -> float:
    """Largest magnitude outside the per-row diagonal pairs."""
    mask = np.ones(W.shape, dtype=bool)
    for j in range(W.shape[0]):
        mask[j, 2 * j] = False
        mask[j, 2 * j + 1] = False
    return float(np.abs(W[mask]).max(initial=0.0))


def fold(stack: TransferStack, eps_fold: float = EPS_FOLD_DEFAULT) -> FoldResult:
    """Reduce the full stack, recording every rotation (zero angles included).

    Rows 1..2N-1 are stripped, eliminated and closed in order; row 2N is
    already confined to its final pair, so it only gets the closure check.
    Its surviving entry may carry a residual phase that no rotation removes,
    hence rDiag stores its magnitude there.
    """
    N = stack.N
    W = np.array(stack.R, dtype=complex)
    records = []
    rDiag = np.zeros(2 * N)
    signs = np.zeros(2 * N, dtype=int)

    for l in range(1, 2 * N):
        records += strip_phases_row(W, l)
        records += eliminate_row(W, l)
        r = W[l - 1, 2 * l - 1]
        if abs(r) < eps_fold:
            raise StackDegenerate(f"row {l} weight {abs(r):.3e} below {eps_fold:.3e}")
        rDiag[l - 1] = r.real
        signs[l - 1] = close_row(W, l, eps_fold)

    last = W[2 * N - 1, 4 * N - 1]
    if abs(last) < eps_fold:
        raise StackDegenerate(f"row {2 * N} weight {abs(last):.3e} below {eps_fold:.3e}")
    rDiag[2 * N - 1] = abs(last)
    signs[2 * N - 1] = _closure_sign(W[2 * N - 1, 4 * N - 2], last, eps_fold)

    rotations = np.rec.fromrecords(records, dtype=ROTATION_DTYPE)
    for arr in (rotations, rDiag, signs):
        arr.setflags(write=False)
    return FoldResult(
        rotations=rotations,
        rDiag=rDiag,
        signs=signs,
        residual=_pattern_residual(W),
    )
