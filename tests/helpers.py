"""Reference operations that only tests need: stack rotations, fold replay, string expansion."""

import numpy as np

from nessfold.oracle import _ordered_strings


def rotate_columns(R: np.ndarray, m: int, theta: float) -> np.ndarray:
    """Copy of R with columns m-1 and m (1-based) of every row rotated by theta."""
    out = np.array(R, dtype=complex)
    c = np.cos(theta)
    s = np.sin(theta)
    a = out[:, m - 2].copy()
    b = out[:, m - 1].copy()
    out[:, m - 2] = a * c + b * s
    out[:, m - 1] = b * c - a * s
    return out


def replay(R: np.ndarray, result) -> np.ndarray:
    """Re-run a FoldResult's recorded rotations and closure zeroings on a copy of R."""
    W = np.array(R, dtype=complex)
    n_rows, ncols = W.shape
    rots = iter(zip(result.rotations.m.tolist(), result.rotations.theta.tolist()))
    for l in range(1, n_rows):
        for _ in range(2 * (ncols - 2 * l) + 1):
            W = rotate_columns(W, *next(rots))
        W[l:, 2 * l - 2:2 * l] = 0.0
    return W


def second_space_from_strings(q: np.ndarray, N: int) -> np.ndarray:
    """Inverse expansion sum_n q_n tau_n of oracle.rho_to_second_space."""
    rho = np.zeros((2 ** N, 2 ** N), dtype=complex)
    for coeff, tau in zip(q, _ordered_strings(N)):
        rho += coeff * tau
    return rho
