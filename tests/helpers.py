"""Reference operations that only tests need: the exact single-site solution, the relative
error between coefficient vectors, a tensor state's dense coefficient vector and one pattern's
amplitude, stack rotations, the complex stack the real fold clears, the step-by-step site-pair
elimination, fold replay, dumped records regrouped into blocks, the 4N second-space generator
with its eigendecomposition, projector and stack, dense and record-by-record rotation gates,
the physical gauge's dense phases, Majorana pair expectations, mode Majoranas, the
first-to-second-space string map and its inverse, and a CLI run that reads a usage refusal's
exit code."""

import math

import numpy as np

from nessfold.cli import main
from nessfold.folding import BLOCK_DTYPE
from nessfold.oracle import FIRST_SPACE_MAX_SITES, majorana_site_matrices, mode_ladders
from nessfold.tns import _occupations, _update_pair


def run_cli(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI run; a usage refusal, which argparse raises as
    SystemExit, gives its code like any other exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analytic_n1(gamma1: float, gamma2: float) -> np.ndarray:
    """Exact single-site coefficients |00) + r|11), r = (G2-G1)/(G2+G1)."""
    if gamma1 < 0 or gamma2 < 0 or gamma1 + gamma2 <= 0:
        raise ValueError("need nonnegative rates with a positive sum")
    r = (gamma2 - gamma1) / (gamma2 + gamma1)
    return np.array([1.0, 0.0, 0.0, r], dtype=complex)


def error_metric(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / ||b||, the relative deviation from reference b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = np.linalg.norm(b)
    if ref == 0:
        raise ValueError("reference vector is zero")
    return float(np.linalg.norm(a - b) / ref)


def dense_coefficients(state) -> np.ndarray:
    """Full 2^sites coefficient vector of a TensorState, big-endian (site 1 = most significant bit)."""
    arr, *rest = state.tensors
    for t in rest:
        arr = np.tensordot(arr, t, axes=([arr.ndim - 1], [0]))
    return np.asarray(arr).reshape(2 ** state.sites)


def _sector(even: int, parity: int) -> slice:
    """Positions of one parity's vectors in a bond whose first `even` vectors are even."""
    return slice(None, even) if parity == 0 else slice(even, None)


def coefficient(state, bits) -> complex:
    """Amplitude of one occupation pattern of a TensorState, contracted left to right: the
    per-pattern reference for tns.covariance's sweep and tns.normalize_vacuum.

    Only the bond sector of the prefix's parity carries the pattern, so a
    pattern of the wrong total parity reads exactly 0.
    """
    bits = _occupations(bits)
    if len(bits) != state.sites:
        raise ValueError(f"need {state.sites} occupations, got {len(bits)}")
    v, parity = np.ones(1), 0
    for j, (M, b) in enumerate(zip(state.matrices, bits)):
        v = v @ M[_sector(state.even[j], parity), _sector(state.even[j + 1], parity ^ b)]
        parity ^= b
    return complex(v[0]) if v.size else 0j


def rotate_columns(R: np.ndarray, m: int, theta: float) -> np.ndarray:
    """Copy of R with columns m-2 and m (1-based) of every row rotated by theta, (a, b) to
    (a c + b s, b c - a s): the rotation of (gamma~_{m-2}, gamma~_m) that a fold record names."""
    out = np.array(R)
    c = np.cos(theta)
    s = np.sin(theta)
    a = out[:, m - 3].copy()
    b = out[:, m - 1].copy()
    out[:, m - 3] = a * c + b * s
    out[:, m - 1] = b * c - a * s
    return out


def gauged_stack(stack) -> np.ndarray:
    """(1/2) [(I - Q') | i (I + Q')] on the odd and even columns: TransferStack.W with its even
    columns times i, the stack of the real-gauge state, whose rows are self-orthogonal as the
    physical stack's are.  The fold's rotations never mix the two parities, so they clear it as
    they clear the real one."""
    return stack.W * np.tile([1.0, 1j], 2 * stack.N)


def eliminate_pair_by_steps(W: np.ndarray, l: int, k: int) -> list:
    """folding.eliminate_pair one Givens rotation at a time, the reference it is checked against
    bit for bit: on the odd columns (2k-1, 2k+1), then on the even ones (2k, 2k+2), 1-based,
    each by atan2 of row l's cleared and kept entries, each row's two entries rotated in
    scalar arithmetic."""
    angles = []
    for a in (2 * k - 2, 2 * k - 1):
        b = a + 2
        theta = math.atan2(W[l - 1, b], W[l - 1, a])
        c, s = math.cos(theta), math.sin(theta)
        for row in W:
            x, y = float(row[a]), float(row[b])
            row[a], row[b] = x * c + y * s, y * c - x * s
        angles.append(theta)
    return angles


def replay(R: np.ndarray, result) -> np.ndarray:
    """Re-run a FoldResult's rotations and closure zeroings on a copy of a stack, one record at
    a time: after row l's 2N - l blocks, the columns of the site it pinned are zeroed in the
    rows below."""
    W = np.array(R)
    n_rows = W.shape[0]
    blocks = iter(result.rotations.reshape(-1, 2).tolist())
    for l, site in zip(range(1, n_rows), result.sites.tolist()):
        for _ in range(n_rows - l):
            for m, theta, _ in next(blocks):
                W = rotate_columns(W, m, theta)
        W[l:, 2 * site - 2:2 * site] = 0.0
    return W


def blocks_from_records(records) -> np.recarray:
    """Regroup (m, theta, kind) records, in application order as --dump-fold writes them,
    into the fold's site-pair blocks, two records each: ("odd", m = 2j+3), then ("even",
    m = 2j+4) on pair j.  Raises ValueError on an odd number of records or on a pair of
    records that follows another pattern."""
    if len(records) % 2:
        raise ValueError(f"{len(records)} rotation records do not split into site-pair blocks of 2")
    blocks = []
    for (m, theta, kind), (m_even, theta_even, kind_even) in zip(records[0::2], records[1::2]):
        pair = (m - 3) // 2
        if (m, kind, m_even, kind_even) != (2 * pair + 3, "odd", 2 * pair + 4, "even"):
            raise ValueError(f"rotation records {[(m, kind), (m_even, kind_even)]} do not follow the "
                             f"fold's per-pair pattern (2j + 3, odd), (2j + 4, even)")
        blocks.append((pair, (theta, theta_even)))
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
# gamma_1..gamma_4 of two sites under Jordan-Wigner, the left site the more significant bit
_PAIR_MAJORANAS = majorana_site_matrices(2)


def rotation_gate(m: int, theta: float) -> np.ndarray:
    """Dense matrix of exp(theta/2 * gamma~_{m-1} gamma~_m), the reference for apply_gate:
    2x2 on site m/2 for even m, 4x4 on sites ((m-1)/2, (m+1)/2) for odd m."""
    half = 0.5 * theta
    if m % 2 == 0:
        return np.diag([np.exp(1j * half), np.exp(-1j * half)])
    return np.cos(half) * np.eye(4, dtype=complex) + np.sin(half) * _XX


def record_gate(m: int, theta: float) -> np.ndarray:
    """Dense 4x4 of exp(theta/2 * gamma~_{m-2} gamma~_m) on the site pair ((m-1)//2, (m+1)//2),
    1-based, from the Jordan-Wigner Majoranas: the rotation a fold record (m, theta) names, on
    the pair's odd Majoranas for odd m and on its even ones for even m."""
    a = 1 - m % 2
    product = _PAIR_MAJORANAS[a] @ _PAIR_MAJORANAS[a + 2]
    return np.cos(0.5 * theta) * np.eye(4) + np.sin(0.5 * theta) * product


def sector_mix(U: np.ndarray) -> np.ndarray:
    """A parity-preserving 4x4 U on |l r> in the layout tns._update_pair takes: entry
    [q, x, pa, pb] maps cut sector q to sector x for left and right bond parities (pa, pb)."""
    q, x, pa, pb = np.indices((2, 2, 2, 2))
    return U[2 * (pa ^ x) + (pb ^ x), 2 * (pa ^ q) + (pb ^ q)]


def two_site_gate(theta: float) -> np.ndarray:
    """Sector mix of exp(theta/2 * gamma~_{2j+2} gamma~_{2j+3}) on a site pair (j, j+1)."""
    return sector_mix(rotation_gate(3, theta))


def apply_gate(state, m: int, theta: float) -> None:
    """Apply exp(theta/2 * gamma~_{m-1} gamma~_m) to a TensorState in place: a phase on site
    m/2 for even m, a two-site update of sites ((m-1)/2, (m+1)/2) with one SVD for odd m; the
    caller keeps the gauge.
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
    left, right = np.arange(M.shape[0]) >= state.even[j], np.arange(M.shape[1]) >= state.even[j + 1]
    state.matrices[j] = M * np.where(left[:, None] != right, phase.conjugate(), phase)


def apply_record(state, m: int, theta: float) -> None:
    """Apply one fold record's rotation (record_gate) to a TensorState in place, one two-site
    update with one SVD: the reference the fused site-pair replay of
    tns.apply_inverse_sequence is checked against.  The caller keeps the gauge."""
    _update_pair(state, (m - 1) // 2 - 1, sector_mix(record_gate(m, theta)))


def physical_phases(n_sites: int) -> np.ndarray:
    """Dense diagonal from the replay's real gauge to the physical one, big-endian: the product
    of e^{i(pi j/2 + pi/4)} over the occupied sites j (0-based) of each pattern.  A solved
    state's dense_coefficients times it is the physical coefficient vector."""
    bits = (np.arange(2 ** n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1
    return np.exp(0.25j * np.pi * (bits @ (2 * np.arange(n_sites) + 1)))


def majorana_pair_expectation(state, odd_idx: int, even_idx: int) -> complex:
    """z0-weighted coefficient of the pattern occupied exactly at the two positions (1-based), in
    the physical gauge: the solved state's coefficient times the phase physical_phases gives
    that pattern, i^(odd_idx + even_idx - 1)."""
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
    return state.z0 * coefficient(state, bits) * (1, 1j, -1, -1j)[(odd_idx + even_idx - 1) % 4]


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


def _ordered_strings(N: int) -> list:
    """All 4^N ordered products gamma_1^n1 (i gamma_2)^n2 ... indexed big-endian."""
    gam = majorana_site_matrices(N)
    factors = [gam[k] if k % 2 == 0 else 1j * gam[k] for k in range(2 * N)]
    dim = 2 ** N
    out = [None] * (4 ** N)

    def rec(k: int, mat: np.ndarray, idx: int) -> None:
        if k == 2 * N:
            out[idx] = mat
            return
        rec(k + 1, mat, idx << 1)
        rec(k + 1, mat @ factors[k], (idx << 1) | 1)

    rec(0, np.eye(dim, dtype=complex), 0)
    return out


def rho_to_second_space(rho: np.ndarray) -> np.ndarray:
    """Vacuum-normalized string coefficients 2^-N tr(tau^dag rho), N <= 3: the first-space
    oracle's density matrix in the second space, where the other oracle and the solver live."""
    dim = rho.shape[0]
    N = int(round(np.log2(dim)))
    if N > FIRST_SPACE_MAX_SITES:
        raise ValueError(f"conversion capped at N = {FIRST_SPACE_MAX_SITES}")
    strings = _ordered_strings(N)
    q = np.array([np.trace(tau.conj().T @ rho) for tau in strings]) / dim
    return q / q[0]


def second_space_from_strings(q: np.ndarray, N: int) -> np.ndarray:
    """Inverse expansion sum_n q_n tau_n of rho_to_second_space."""
    rho = np.zeros((2 ** N, 2 ** N), dtype=complex)
    for coeff, tau in zip(q, _ordered_strings(N)):
        rho += coeff * tau
    return rho
