"""Independent reference answers: the physical-space covariance of the open chain.

For a quadratic Hamiltonian H = (i/4) sum_jk h_jk g_j g_k over Majoranas g_1..g_2N
and linear jump operators L = sum_j l_j g_j under the factor-2 dissipator
2 L rho L^+ - {L^+ L, rho}, the covariance Gamma_jk = i <g_j g_k> (j != k) obeys

    dGamma/dt = X Gamma + Gamma X^T + Y,   X = h - 4 Re M,   Y = 8 Im M,

with M = sum over channels of l l^+ (Prosen, NJP 10, 043026, 2008).  The
stationary covariance solves the continuous Lyapunov equation
X Gamma + Gamma X^T = -Y, and is unique when every eigenvalue of X has a
negative real part.

The reference is built from the public `model` objects only (the Majorana
coefficient matrix A and the bath vectors B), so it shares no code with the
Liouvillian, spectral, folding, tensor or observable stages the benchmark
times.  Its sign and index conventions are pinned against the dense oracles in
`benchmark/tests/test_reference.py`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

# relative-error denominators are floored here: below it a relative error
# measures round-off of a near-zero number, not the solver
EEC_FLOOR = 1e-4
LYAPUNOV_RESIDUAL_TOL = 1e-10


class UnstableReference(ValueError):
    """The covariance dynamics has a non-decaying mode, so no unique reference exists."""


def drift_and_source(A: np.ndarray, channels) -> tuple[np.ndarray, np.ndarray]:
    """X and Y of the covariance equation from the coefficient matrix A and bath vectors."""
    h = A - A.T  # H = (1/2) sum A_rc g_r (i g_c) = (i/4) sum (A - A^T)_rc g_r g_c
    n = A.shape[0]
    M = np.zeros((n, n), dtype=complex)
    for ch in channels:
        l = np.asarray(ch.B, dtype=complex).copy()
        l[1::2] *= 1j  # L = sum_j B_{2j-1} g_{2j-1} + B_{2j} (i g_{2j})
        M += np.outer(l, l.conj())
    return h - 4.0 * M.real, 8.0 * M.imag


def stability_margin(A: np.ndarray, channels) -> float:
    """Slowest covariance decay rate, -max Re eig(X); positive when the reference is unique."""
    X, _ = drift_and_source(A, channels)
    return float(-np.linalg.eigvals(X).real.max())


def covariance(A: np.ndarray, channels) -> np.ndarray:
    """Stationary Majorana covariance Gamma_jk = i <g_j g_k>, real antisymmetric 2N x 2N."""
    X, Y = drift_and_source(A, channels)
    margin = float(-np.linalg.eigvals(X).real.max())
    if not margin > 0.0:
        raise UnstableReference(f"covariance drift has a non-decaying mode (margin {margin:.3e})")
    G = sla.solve_continuous_lyapunov(X, -Y)
    residual = float(np.abs(X @ G + G @ X.T + Y).max())
    scale = max(float(np.abs(Y).max()), 1.0)
    if not np.all(np.isfinite(G)) or residual > LYAPUNOV_RESIDUAL_TOL * scale:
        raise UnstableReference(f"Lyapunov residual {residual:.3e} too large")
    return (G - G.T) / 2.0


def covariance_observables(G: np.ndarray) -> tuple[float, np.ndarray]:
    """eec = 2|Gamma[2, 2N-1] + Gamma[1, 2N]| and occ_j = (1 + Gamma[2j-1, 2j])/2 (1-based)."""
    N = G.shape[0] // 2
    eec = 2.0 * abs(G[1, 2 * N - 2] + G[0, 2 * N - 1]) if N >= 2 else 0.0
    occ = (1.0 + np.diag(G[0::2, 1::2])) / 2.0
    return float(eec), occ


def reference_observables(A: np.ndarray, channels) -> tuple[float, np.ndarray]:
    """Reference (eec, occupancy profile) of one parameter point."""
    return covariance_observables(covariance(A, channels))


def stack_readout(R: np.ndarray) -> tuple[float, np.ndarray]:
    """(eec, occupancy) read off a 2N x 4N transfer stack without any tensor replay.

    The stationary state is the Gaussian vector annihilated by the stack rows;
    with a, b = R_odd -/+ i R_even its pair amplitudes over the vacuum are
    X = -a^-1 b, so eec = 2|X[1, 2N-2] + X[0, 2N-1]| and
    occ_j = (1 + Re X[2j-2, 2j-1])/2 (0-based).
    """
    R = np.asarray(R)
    N = R.shape[0] // 2
    a = R[:, 0::2] - 1j * R[:, 1::2]
    b = R[:, 0::2] + 1j * R[:, 1::2]
    X = -np.linalg.solve(a, b)
    eec = 2.0 * abs(X[1, 2 * N - 2] + X[0, 2 * N - 1]) if N >= 2 else 0.0
    occ = (1.0 + np.diag(X[0::2, 1::2]).real) / 2.0
    return float(eec), occ


def eec_error(eec: float, ref: float) -> float:
    """|eec - ref| / max(|ref|, EEC_FLOOR): relative, absolute-scaled for near-zero references."""
    return abs(eec - ref) / max(abs(ref), EEC_FLOOR)


def occ_error(occ, ref) -> float:
    return float(np.abs(np.asarray(occ, dtype=float) - np.asarray(ref, dtype=float)).max())
