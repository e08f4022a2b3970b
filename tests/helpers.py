"""Reference operations that only tests need: stack rotations, fold replay, rotation
counts, dense and record-by-record rotation gates, Majorana pair expectations, mode
Majoranas, string expansion."""

import math

import numpy as np

from nessfold.observables import _require_normalized
from nessfold.oracle import _ordered_strings, mode_ladders
from nessfold.tns import _pair_gates, _physical, _update_pair, coefficient


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
    """Re-run a FoldResult's recorded rotations and closure zeroings on a copy of R: after
    row l's records, the columns of the site it pinned are zeroed in the rows below."""
    W = np.array(R, dtype=complex)
    n_rows = W.shape[0]
    rots = iter(zip(result.rotations.m.tolist(), result.rotations.theta.tolist()))
    for l, site in zip(range(1, n_rows), result.sites.tolist()):
        for _ in range(5 * (n_rows - l)):
            W = rotate_columns(W, *next(rots))
        W[l:, 2 * site - 2:2 * site] = 0.0
    return W


def expected_rotation_count(N: int) -> int:
    """Rotations recorded by fold: five (3 U + 2 V) for each site pair (k, k+1), l <= k < 2N,
    of each row l < 2N."""
    return sum(5 * (2 * N - l) for l in range(1, 2 * N))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_XX = 1j * np.kron(_PAULI_X, _PAULI_X)


def rotation_gate(m: int, theta: float) -> np.ndarray:
    """Dense matrix of exp(theta/2 * gamma~_{m-1} gamma~_m), the reference for apply_gate:
    2x2 on site m/2 for even m, 4x4 on sites ((m-1)/2, (m+1)/2) for odd m."""
    half = 0.5 * theta
    if m % 2 == 0:
        return np.diag([np.exp(1j * half), np.exp(-1j * half)])
    return np.cos(half) * np.eye(4, dtype=complex) + np.sin(half) * _XX


def apply_gate(state, m: int, theta: float) -> None:
    """Apply exp(theta/2 * gamma~_{m-1} gamma~_m) to a TensorState in place, one record at a
    time: the reference the fused site-pair replay of tns.apply_inverse_sequence is checked
    against.  A phase on site m/2 for even m, a two-site update of sites ((m-1)/2, (m+1)/2)
    with one SVD for odd m; the caller keeps the gauge.
    """
    if m % 2 == 1:
        j = (m - 1) // 2 - 1
        _update_pair(state, j, _pair_gates([j], [[m]], [[theta]])[0])
        return
    j = m // 2 - 1
    if not 0 <= j < state.sites:
        raise ValueError(f"site {j + 1} outside 1..{state.sites}")
    half = 0.5 * theta
    phase = complex(math.cos(half), math.sin(half))
    M = state.matrices[j]
    state.matrices[j] = M * np.where(_physical(M, state.even[j], state.even[j + 1]), phase.conjugate(), phase)


def majorana_pair_expectation(state, odd_idx: int, even_idx: int) -> complex:
    """z0-weighted coefficient of the pattern occupied exactly at the two positions."""
    _require_normalized(state)
    n2 = state.sites
    if not (1 <= odd_idx <= n2 and 1 <= even_idx <= n2):
        raise ValueError(f"indices must lie in 1..{n2}, got ({odd_idx}, {even_idx})")
    if odd_idx % 2 == 0 or even_idx % 2 == 1:
        raise ValueError(f"need (odd, even) index pair, got ({odd_idx}, {even_idx})")
    bits = [0] * n2
    bits[odd_idx - 1] = 1
    bits[even_idx - 1] = 1
    return state.z0 * coefficient(state, bits)


def mode_majoranas(n_modes: int) -> list:
    """Sparse gamma~_1..gamma~_2n: gamma~_{2l-1} = c_l + c_l^dag, gamma~_2l = i(c_l^dag - c_l).

    This sign choice makes the generator equal the antisymmetrized quadratic
    form plus Lscalar/2 exactly; the opposite one shifts bath cross terms.
    """
    out = []
    for c in mode_ladders(n_modes):
        cd = c.conj().T.tocsr()
        out.append((c + cd).tocsr())
        out.append((1j * (cd - c)).tocsr())
    return out


def second_space_from_strings(q: np.ndarray, N: int) -> np.ndarray:
    """Inverse expansion sum_n q_n tau_n of oracle.rho_to_second_space."""
    rho = np.zeros((2 ** N, 2 ** N), dtype=complex)
    for coeff, tau in zip(q, _ordered_strings(N)):
        rho += coeff * tau
    return rho
