"""Transfer-stack reduction: rotations, closure, bookkeeping, synthetic failures."""

import numpy as np
import pytest

from nessfold import folding
from nessfold.exceptions import ClosureViolation
from nessfold.folding import FoldResult, close_row, eliminate_pair, fold
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.spectral import TransferStack, build_liouvillian, build_stack, decompose, orthogonality_residual, stable_projector

from helpers import eliminate_pair_by_steps, replay, rotate_columns

BP = EndBathParams(gamma11=0.3, gamma21=1.0, gamma12=0.6, gamma22=1.4)
FIG1_BP = EndBathParams(gamma11=1.3, gamma21=2.2, gamma12=3.4, gamma22=4.1)  # the Fig. 1 panels' rates
GAIN_BP = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)


def genuine_stack(n=2, w=1.1, mu=0.8, delta=1.0, baths=BP):
    L = build_liouvillian(build_kitaev(KitaevParams(N=n, w=w, mu=mu, delta=delta)),
                          end_baths(n, baths))
    return build_stack(stable_projector(decompose(L)), n)


def canonical_pattern(r, signs):
    """Stack already in folded form: row l carries (i s_l r_l, r_l) on its pair."""
    n2 = len(r)
    W = np.zeros((n2, 2 * n2), dtype=complex)
    for l in range(1, n2 + 1):
        W[l - 1, 2 * l - 2] = 1j * signs[l - 1] * r[l - 1]
        W[l - 1, 2 * l - 1] = r[l - 1]
    return W


def scramble(W, seed, n_rot=80):
    rng = np.random.default_rng(seed)
    R = W.copy()
    for _ in range(n_rot):
        m = int(rng.integers(2, W.shape[1] + 1))
        R = rotate_columns(R, m, float(rng.uniform(-np.pi, np.pi)))
    return R


def test_rotate_columns_is_orthogonal():
    rng = np.random.default_rng(3)
    R = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    G = R @ R.T
    out = rotate_columns(R, 4, 0.7)
    np.testing.assert_allclose(out @ out.T, G, atol=1e-14)
    back = rotate_columns(out, 4, -0.7)
    np.testing.assert_allclose(back, R, atol=1e-14)


def pair_records(k):
    return [(2 * k + 2, "U"), (2 * k + 1, "U"), (2 * k, "U"), (2 * k + 2, "V"), (2 * k + 1, "V")]


def clear_row(W, l):
    """Row l's angles, one list per site pair, clearing from the right end down to k = l."""
    return [eliminate_pair(W, l, k) for k in range(W.shape[0] - 1, l - 1, -1)]


def pair_by_rotation(V, l, k):
    """eliminate_pair one rotation at a time, each angle read off row l after the previous
    rotation reached every row: the rotated copy of V and the pair's (m, theta, kind) records."""
    records = []
    for m, kind in pair_records(k):
        a, b = V[l - 1, m - 2], V[l - 1, m - 1]
        theta = np.arctan2(b.imag, a.imag) if kind == "U" else np.arctan2(b.real, a.real)
        V = rotate_columns(V, m, theta)
        records.append((m, theta, kind))
    return V, records


def zigzag_sites(n):
    """The site each row pins: 1, 2N, 2, 2N-1, ..., N+1."""
    return [(l + 1) // 2 if l % 2 else 2 * n + 1 - l // 2 for l in range(1, 2 * n)] + [n + 1]


def fold_by_rotation(R):
    """fold's records, each angle read off the row after the previous rotation reached every row:
    odd rows cleared onto the leftmost free site, even rows onto the rightmost on the mirrored
    columns, whose record (m, theta) acts on the stack as (2 rows + 2 - m, -theta)."""
    W = np.array(R, dtype=complex)
    rows, records, lo, hi = W.shape[0], [], 1, W.shape[0]
    for l in range(1, rows):
        mirrored = l % 2 == 0
        V, first, last = (W[:, ::-1], rows + 1 - hi, rows + 1 - lo) if mirrored else (W, lo, hi)
        for k in range(last - 1, first - 1, -1):
            V, block = pair_by_rotation(V, l, k)
            records += [(2 * rows + 2 - m, -theta, kind) if mirrored else (m, theta, kind)
                        for m, theta, kind in block]
        W, site = (V[:, ::-1], hi) if mirrored else (V, lo)
        W[l:, 2 * site - 2:2 * site] = 0.0
        lo, hi = (lo, hi - 1) if mirrored else (lo + 1, hi)
    return records


def test_strip_phases_makes_row_real():
    stack = genuine_stack()
    W = stack.R.copy()
    angles = clear_row(W, 1)
    assert np.abs(W[0, 1:].imag).max() < 1e-14
    assert [len(block) for block in angles] == [5, 5, 5]


def test_eliminate_clears_tail():
    stack = genuine_stack()
    W = stack.R.copy()
    clear_row(W, 1)
    assert np.abs(W[0, 2:]).max() < 1e-13
    assert W[0, 1].real > 0


@pytest.mark.parametrize("l, k", [(1, 3), (1, 1), (2, 3), (3, 3)])
def test_eliminate_pair_clears_site_k_plus_1_and_touches_only_its_columns(l, k):
    W = genuine_stack().R.copy()
    for row in range(1, l):
        clear_row(W, row)
        close_row(W, row, row)
    for right in range(3, k, -1):
        eliminate_pair(W, l, right)
    before = W.copy()
    angles = eliminate_pair(W, l, k)
    # the angles of pair_records(k), in that order
    _, ref = pair_by_rotation(before, l, k)
    np.testing.assert_allclose(angles, [theta for _, theta, _ in ref], rtol=0, atol=1e-14)
    assert np.abs(W[l - 1, 2 * k:2 * k + 2]).max() < 1e-14 * np.abs(before[l - 1]).max()
    outside = np.ones(W.shape[1], dtype=bool)
    outside[2 * k - 2:2 * k + 2] = False
    np.testing.assert_array_equal(W[:, outside], before[:, outside])
    # an orthogonal mix of the four columns: every row keeps its norm there
    np.testing.assert_allclose(np.linalg.norm(W[:, ~outside], axis=1),
                               np.linalg.norm(before[:, ~outside], axis=1), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_interior_rows_close_with_sign_plus_one(n):
    """The last pair of each interior row leaves (i r', r) with Im r' >= 0 and r > 0 on the columns
    the row was cleared on, so it closes +1 there.  An even row is cleared on the mirrored columns
    onto the rightmost free site; read on the stack's own columns, it closes -1."""
    W = genuine_stack(n=n).R.copy()
    rows, lo, hi = 2 * n, 1, 2 * n
    kept = []  # each row's largest entry on its other free sites, once its pairs are cleared
    for l in range(1, rows):
        mirrored = l % 2 == 0
        V, first, last = (W[:, ::-1], rows + 1 - hi, rows + 1 - lo) if mirrored else (W, lo, hi)
        for k in range(last - 1, first - 1, -1):
            eliminate_pair(V, l, k)
        kept.append(np.abs(V[l - 1, 2 * first:2 * last]).max())
        assert V[l - 1, 2 * first - 2].imag >= 0 and V[l - 1, 2 * first - 1].real > 0
        assert abs(V[l - 1, 2 * first - 1].imag) < 1e-14
        assert close_row(V, l, first) == 1
        assert close_row(W, l, hi if mirrored else lo) == (-1 if mirrored else 1)
        lo, hi = (lo, hi - 1) if mirrored else (lo + 1, hi)
    result = fold(genuine_stack(n=n))
    assert result.signs[:-1].tolist() == [1 if l % 2 else -1 for l in range(1, rows)]
    assert result.sites.tolist() == zigzag_sites(n)
    # the residual is the largest leftover of any row as it closes, later rotations aside
    assert result.residual == max(kept)


@pytest.mark.parametrize("n", [2, 3])
def test_blocked_pair_update_matches_rotation_by_rotation(n):
    stack = genuine_stack(n=n, w=0.5, mu=2.0)
    rots = fold(stack).rotations
    ref = fold_by_rotation(stack.R)
    assert [(m, kind) for m, _, kind in ref] == list(zip(rots.m.tolist(), rots.kind.tolist()))
    np.testing.assert_allclose(rots.theta, [theta for _, theta, _ in ref], rtol=0, atol=1e-14)


def fold_by_steps(stack, monkeypatch):
    """fold with every site pair eliminated by the step-by-step reference."""
    with monkeypatch.context() as m:
        m.setattr(folding, "eliminate_pair", eliminate_pair_by_steps)
        return fold(stack)


def assert_same_fold(result, ref):
    for name in ("blocks", "rDiag", "signs", "sites"):
        assert np.array_equal(getattr(result, name), getattr(ref, name)), name
    assert result.residual == ref.residual


@pytest.mark.parametrize("baths", [FIG1_BP, GAIN_BP], ids=["fig1-baths", "gain-only"])
@pytest.mark.parametrize("n", range(1, 9))
def test_fold_kernel_matches_the_step_by_step_pair_bit_for_bit(n, baths, monkeypatch):
    rng = np.random.default_rng(n)
    stack = genuine_stack(n=n, w=rng.uniform(0.1, 2.0), mu=rng.uniform(0.1, 3.0), baths=baths)
    assert_same_fold(fold(stack), fold_by_steps(stack, monkeypatch))


def test_fold_kernel_keeps_the_signs_of_exact_zeros(monkeypatch):
    """Exact zeros reach atan2 with their signs, where -0.0 turns a 0 or pi angle into -0 or
    -pi: on a folded pattern whose zeros are all -0.0 the kernel still matches the reference."""
    R = canonical_pattern(np.array([0.9, 0.3, 1.7, 0.5, 1.1, 0.7]), np.array([1, -1, 1, -1, 1, -1]))
    R.real[R.real == 0] = -0.0
    R.imag[R.imag == 0] = -0.0
    stack = TransferStack(N=3, R=R)
    result = fold(stack)
    assert_same_fold(result, fold_by_steps(stack, monkeypatch))
    # the signs are what decides: with every zero +0.0 most of those angles are 0, not -pi
    unsigned = fold(TransferStack(N=3, R=R + 0.0))
    assert (np.abs(result.blocks.angles) == np.pi).sum() > (np.abs(unsigned.blocks.angles) == np.pi).sum()


def test_close_row_signs():
    Wp = np.zeros((2, 4), dtype=complex)
    Wp[0, 0] = 0.4j
    Wp[0, 1] = 0.4
    Wp[1, 0] = 7.0  # a lower row on the pinned site, left as it is
    Wm = Wp.copy()
    before = Wp.copy()
    assert close_row(Wp, 1, 1) == 1
    np.testing.assert_array_equal(Wp, before)

    Wm[0, 0] = -0.4j
    assert close_row(Wm, 1, 1) == -1

    # closure acts on the site given, not on the row's index, and writes nothing
    Ws = np.zeros((2, 4), dtype=complex)
    Ws[0, 2:] = [-0.4j, 0.4]
    Ws[1] = 7.0
    before = Ws.copy()
    assert close_row(Ws, 1, 2) == -1
    np.testing.assert_array_equal(Ws, before)


def test_close_row_rejects_non_isotropic_pair():
    W = np.zeros((2, 4), dtype=complex)
    W[0, 0] = 0.3
    W[0, 1] = 1.0
    with pytest.raises(ClosureViolation):
        close_row(W, 1, 1)


def test_fold_counts_and_weights():
    for n in (1, 2, 3):
        stack = genuine_stack(n=n)
        result = fold(stack)
        assert len(result.blocks) == n * (2 * n - 1)
        assert result.rDiag.shape == (2 * n,)
        assert np.all(result.rDiag > 0)
        assert set(result.signs.tolist()) <= {-1, 1}
        assert result.sites.tolist() == zigzag_sites(n)
        assert result.residual < 1e-12
        # row l's 2N - l blocks clear the pairs of its free sites, an odd row right to left on
        # the stack's own columns, an even row left to right on the mirrored ones
        start = 0
        for l in range(1, 2 * n):
            row = result.blocks[start:start + 2 * n - l]
            start += len(row)
            free = sorted(set(range(1, 2 * n + 1)) - set(result.sites[:l - 1].tolist()))
            assert row.roles.tolist() == [[0, 1, 2, 0, 1] if l % 2 == 0 else [2, 1, 0, 2, 1]] * len(row)
            assert np.diff(row.pair).tolist() == [1 if l % 2 == 0 else -1] * (len(row) - 1)
            assert sorted(row.pair.tolist()) == list(range(free[0] - 1, free[-1] - 1))


def test_roles_place_each_step_on_its_pair():
    """A plain block's steps act on the pair's right site, across the pair, on its left site,
    then right and across again; a mirrored block's read the same columns from the far end,
    so left and right swap.  Each record's m is 2j + 2 + role."""
    result = fold(genuine_stack(n=3))
    roles = result.blocks.roles
    assert roles.shape == (len(result.blocks), 5)
    assert {tuple(r) for r in roles.tolist()} == {(0, 1, 2, 0, 1), (2, 1, 0, 2, 1)}
    m = result.rotations.m.reshape(roles.shape)
    assert (m == 2 * result.blocks.pair[:, None] + 2 + roles).all()


def test_fold_replay_reproduces_pattern():
    stack = genuine_stack(n=2)
    result = fold(stack)
    W = replay(stack.R, result)
    assert result.sites.tolist() == [1, 4, 2, 3]
    for l, site in enumerate(result.sites.tolist(), start=1):
        assert abs(W[l - 1, 2 * site - 1]) == pytest.approx(result.rDiag[l - 1], abs=1e-12)
        assert abs(W[l - 1, 2 * site - 2]) == pytest.approx(result.rDiag[l - 1], abs=1e-12)
    # everything outside each row's pinned site is gone
    mask = np.ones(W.shape, dtype=bool)
    for j, site in enumerate(result.sites.tolist()):
        mask[j, 2 * site - 2: 2 * site] = False
    assert np.abs(W[mask]).max() < 1e-12


def test_fold_recovers_scrambled_weights():
    r = np.array([0.9, 0.3, 1.7, 0.5])
    signs = np.array([1, -1, 1, -1])
    R = scramble(canonical_pattern(r, signs), seed=11)
    result = fold(TransferStack(N=2, R=R))
    np.testing.assert_allclose(result.rDiag, r, atol=1e-12)
    assert result.residual < 1e-12


def test_fold_gauges_interior_signs_positive():
    """Phase stripping leaves a nonnegative imaginary pivot, so interior rows
    always close +1.  The pi-rotations doing that act on every row, so a
    negative interior sign propagates a compensating flip into later rows."""
    r = np.array([0.8, 0.6])
    flipped = fold(TransferStack(N=1, R=canonical_pattern(r, np.array([-1, -1]))))
    np.testing.assert_array_equal(flipped.signs, [1, 1])
    np.testing.assert_allclose(flipped.rDiag, r, atol=1e-14)

    # with a positive row above it, the last row's sign comes through as-is
    plain = fold(TransferStack(N=1, R=canonical_pattern(r, np.array([1, -1]))))
    np.testing.assert_array_equal(plain.signs, [1, -1])
    np.testing.assert_allclose(plain.rDiag, r, atol=1e-14)


def test_fold_zero_row_degenerate():
    """A vanishing row is refused by name, the first row and the last alike."""
    for weights, row in (([0.0, 1.0], 1), ([1.0, 0.0], 2)):
        R = canonical_pattern(np.array(weights), np.array([1, 1]))
        with pytest.raises(ClosureViolation, match=f"row {row} weight"):
            fold(TransferStack(N=1, R=R))


def test_fold_closure_violation():
    R = np.zeros((2, 4), dtype=complex)
    R[0, 0] = 0.3
    R[0, 1] = 1.0
    R[1, 2] = 0.5j
    R[1, 3] = 0.5
    with pytest.raises(ClosureViolation):
        fold(TransferStack(N=1, R=R))


def test_last_row_keeps_magnitude_under_residual_phase():
    # a stray overall phase on the last row has no rotation left to remove it
    phase = np.exp(0.3j)
    W = canonical_pattern(np.array([0.7, 1.2]), np.array([1, 1]))
    W[1] *= phase
    result = fold(TransferStack(N=1, R=W))
    assert result.rDiag[1] == pytest.approx(1.2, abs=1e-14)
    assert result.signs[1] == 1


def test_fold_result_is_frozen():
    result = fold(genuine_stack(n=1))
    with pytest.raises(AttributeError):
        result.residual = 0.0
    with pytest.raises(ValueError):
        result.rDiag[0] = 5.0
    with pytest.raises(ValueError):
        result.sites[0] = 2
    with pytest.raises(ValueError):
        result.blocks.angles[0, 0] = 5.0
    with pytest.raises(ValueError):
        result.rotations.theta[0] = 5.0
    assert isinstance(result, FoldResult)


@pytest.mark.parametrize("n, w, mu", [(64, 0.5, 2.2), (96, 0.5, 2.27), (128, 0.5, 2.2)])
def test_large_stacks_close(n, w, mu):
    """The stack read off the covariance is isotropic by construction, so the fold closes every
    row at N = 64-128, where roundoff in a stack from a 4N eigenbasis crossed the absolute
    closure tolerance.  Fold only: a replay at this N on the volume-law line (0.5, 2) needs a
    bond far beyond memory."""
    stack = genuine_stack(n, w, mu, baths=GAIN_BP)
    assert orthogonality_residual(stack) <= 1e-14
    assert fold(stack).residual <= 1e-14
