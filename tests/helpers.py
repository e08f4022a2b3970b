"""Reference operations that only tests need: stack rotations, the step-by-step site-pair
elimination, fold replay, dumped records regrouped into blocks, the 4N second-space
generator with its eigendecomposition, projector and stack, dense and record-by-record rotation
gates, Majorana pair expectations, mode Majoranas, string expansion, and a CLI run that reads
a usage refusal's exit code."""

import math

import numpy as np

from nessfold.cli import main
from nessfold.folding import _PAIR_STEPS, BLOCK_DTYPE
from nessfold.oracle import _ordered_strings, mode_ladders
from nessfold.tns import _pair_gates, _physical, _update_pair, coefficient


def run_cli(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI run; a usage refusal, which argparse raises as
    SystemExit, gives its code like any other exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def eliminate_pair_by_steps(W: np.ndarray, l: int, k: int) -> list:
    """folding.eliminate_pair built step by step, the reference its closed form is checked
    against bit for bit: each step of _PAIR_STEPS takes its angle from row l's four entries,
    updates them, and rotates the rows of a 4x4 identity held as nested lists; the built
    matrix then reaches columns 2k-1..2k+2 of every row in one product."""
    c0 = 2 * k - 2
    x = W[l - 1, c0:c0 + 4].tolist()
    Q = [[float(i == j) for j in range(4)] for i in range(4)]
    angles = []
    for i, kind in _PAIR_STEPS:
        a, b = x[i], x[i + 1]
        theta = math.atan2(b.imag, a.imag) if kind == "U" else math.atan2(b.real, a.real)
        c, s = math.cos(theta), math.sin(theta)
        x[i], x[i + 1] = a * c + b * s, b * c - a * s
        for q in Q:
            q[i], q[i + 1] = q[i] * c + q[i + 1] * s, q[i + 1] * c - q[i] * s
        angles.append(theta)
    W[:, c0:c0 + 4] = W[:, c0:c0 + 4] @ np.array(Q)
    return angles


def replay(R: np.ndarray, result) -> np.ndarray:
    """Re-run a FoldResult's rotations and closure zeroings on a copy of R, one record at a
    time: after row l's 2N - l blocks, the columns of the site it pinned are zeroed in the
    rows below."""
    W = np.array(R, dtype=complex)
    n_rows = W.shape[0]
    blocks = iter(result.rotations.reshape(-1, len(_PAIR_STEPS)).tolist())
    for l, site in zip(range(1, n_rows), result.sites.tolist()):
        for _ in range(n_rows - l):
            for m, theta, _ in next(blocks):
                W = rotate_columns(W, m, theta)
        W[l:, 2 * site - 2:2 * site] = 0.0
    return W


def blocks_from_records(records) -> np.recarray:
    """Regroup (m, theta, kind) records, in application order as --dump-fold writes them,
    into the fold's site-pair blocks, five records each: the second has m = 2j+3 on pair j,
    and the first m = 2j+4 for a plain block or 2j+2 for a mirrored one.  Raises ValueError
    on records that do not split into fives or on a block that follows neither pattern."""
    size = len(_PAIR_STEPS)
    if len(records) % size:
        raise ValueError(f"{len(records)} rotation records do not split into site-pair blocks of {size}")
    columns = np.array([i for i, _ in _PAIR_STEPS])
    blocks = []
    for start in range(0, len(records), size):
        ms, thetas, _ = zip(*records[start:start + size])
        pair = (ms[1] - 3) // 2
        mirrored = ms[0] == 2 * pair + 2
        if list(ms) != (2 * pair + (4 - columns if mirrored else 2 + columns)).tolist():
            raise ValueError(f"rotation records {list(ms)} follow neither of the fold's per-pair patterns "
                             f"2j + 2 + {columns.tolist()} and 2j + 4 - {columns.tolist()}")
        blocks.append((pair, mirrored, thetas))
    return np.rec.fromrecords(blocks, dtype=BLOCK_DTYPE)


def liouvillian_by_channel(H, baths) -> np.ndarray:
    """Lmat of the second-space generator L~ = sum_jk Lmat[j][k] g~_j g~_k + Lscalar/2 over the
    4N doubled Majoranas, antisymmetric with a zero diagonal: the 4N reference that
    liouvillian's covariance drift and source are checked against.  The unitary part places
    (1/2) A[2j-1][2k] at (4k, 4j-3) and (4j-2, 4k-1); each channel adds six families, outer
    products of its odd and even B entries, to the raw coefficients in turn.  The expansion's
    four other bath families, -B B^T terms at (4j-r, 4k-r), are symmetric and are left out,
    since the antisymmetrization (L[j][k] - L[k][j]) / 2, valid because the Majorana products
    anticommute, cancels them."""
    n = 4 * H.N
    raw = np.zeros((n, n), dtype=complex)
    A_oe = H.A[0::2, 1::2]  # A_oe[j, k] = A[2j-1][2k] in 1-based Majorana indexing
    raw[3::4, 0::4] += A_oe.T / 2.0
    raw[1::4, 2::4] += A_oe / 2.0
    for ch in baths:
        bo, be = ch.B[0::2], ch.B[1::2]
        oo, oe, eo, ee = np.outer(bo, bo), np.outer(bo, be), np.outer(be, bo), np.outer(be, be)
        raw[0::4, 3::4] += 2j * oe
        raw[1::4, 2::4] += 2j * oe
        raw[1::4, 0::4] += 2j * oo
        raw[3::4, 2::4] += 2j * ee
        raw[1::4, 3::4] += 2.0 * oe
        raw[2::4, 0::4] += 2.0 * eo
    return (raw - raw.T) / 2.0


def scalar_eigenvalue(baths) -> float:
    """Lscalar, the eigenvalue of the totally occupied second-space state: -4 sum_n sum_j B_j^(n)^2."""
    return -4.0 * sum(float(np.dot(ch.B, ch.B)) for ch in baths)


def reference_spectrum(Lmat: np.ndarray) -> tuple:
    """(z, Z, Z^-1) of the full eigendecomposition of the mode matrix -4 Lmat, sorted by
    (Re z descending, Im z ascending) so that the stable modes come first."""
    z, Z = np.linalg.eig(-4.0 * Lmat)
    order = np.lexsort((z.imag, -z.real))
    Z = Z[:, order]
    return z[order], Z, np.linalg.inv(Z)


def reference_projector(Lmat: np.ndarray) -> np.ndarray:
    """Spectral projector of -4 Lmat onto its stable half, Z[:, :2N] Z^-1[:2N, :]."""
    _, Z, Zinv = reference_spectrum(Lmat)
    n = len(Z) // 2
    return Z[:, :n] @ Zinv[:n, :]


def reference_stack(H, baths) -> np.ndarray:
    """The 2N x 4N stack read off the 4N projector S: rows (S[2j-1] + i S[2j]) / 2, 1-based."""
    S = reference_projector(liouvillian_by_channel(H, baths))
    return (S[0::2] + 1j * S[1::2]) / 2.0


def pair_basis(N: int) -> np.ndarray:
    """Columns (e_{2m} - i e_{2m+1}) / sqrt(2), then (e_{2m} + i e_{2m+1}) / sqrt(2), m = 0..2N-1
    (0-based), over the 4N second-space Majoranas."""
    T = np.zeros((4 * N, 4 * N), dtype=complex)
    m = np.arange(2 * N)
    T[2 * m, m] = T[2 * m, 2 * N + m] = 1.0 / math.sqrt(2.0)
    T[2 * m + 1, m] = -1j / math.sqrt(2.0)
    T[2 * m + 1, 2 * N + m] = 1j / math.sqrt(2.0)
    return T


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_XX = 1j * np.kron(_PAULI_X, _PAULI_X)


def rotation_gate(m: int, theta: float) -> np.ndarray:
    """Dense matrix of exp(theta/2 * gamma~_{m-1} gamma~_m), the reference for apply_gate:
    2x2 on site m/2 for even m, 4x4 on sites ((m-1)/2, (m+1)/2) for odd m."""
    half = 0.5 * theta
    if m % 2 == 0:
        return np.diag([np.exp(1j * half), np.exp(-1j * half)])
    return np.cos(half) * np.eye(4, dtype=complex) + np.sin(half) * _XX


def two_site_gate(theta: float) -> np.ndarray:
    """Sector mix of exp(theta/2 * gamma~_{2j+2} gamma~_{2j+3}) on a site pair (j, j+1): the
    undo of a block whose one step, at angle -theta, has role 1, the rotation mixing the pair."""
    return _pair_gates([[1]], [[-theta]])[0]


def apply_gate(state, m: int, theta: float) -> None:
    """Apply exp(theta/2 * gamma~_{m-1} gamma~_m) to a TensorState in place, one record at a
    time: the reference the fused site-pair replay of tns.apply_inverse_sequence is checked
    against.  A phase on site m/2 for even m, a two-site update of sites ((m-1)/2, (m+1)/2)
    with one SVD for odd m; the caller keeps the gauge.
    """
    if m % 2 == 1:
        j = (m - 1) // 2 - 1
        _update_pair(state, j, two_site_gate(theta))
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
    if state.z0 == 0:
        raise ValueError("state is not vacuum-normalized; call normalize_vacuum first")
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
