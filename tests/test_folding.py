"""Transfer-stack reduction: the real gauge, rotations, closure, bookkeeping, synthetic failures."""

import numpy as np
import pytest

from nessfold import folding
from nessfold.exceptions import ClosureViolation
from nessfold.folding import FoldResult, close_row, eliminate_pair, fold, fold_real
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.spectral import (build_liouvillian, build_stack, decompose, gauge_signs, orthogonality_residual,
                               stable_projector)

from helpers import eliminate_pair_by_steps, gauged_stack, replay, rotate_columns

BP = EndBathParams(gamma11=0.3, gamma21=1.0, gamma12=0.6, gamma22=1.4)
FIG1_BP = EndBathParams(gamma11=1.3, gamma21=2.2, gamma12=3.4, gamma22=4.1)  # the Fig. 1 panels' rates
GAIN_BP = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)


def genuine_stack(n=2, w=1.1, mu=0.8, delta=1.0, baths=BP):
    L = build_liouvillian(build_kitaev(KitaevParams(N=n, w=w, mu=mu, delta=delta)),
                          end_baths(n, baths))
    return build_stack(stable_projector(decompose(L)), n)


def canonical_pattern(r, signs):
    """Real stack already in folded form: row l carries (-s_l r_l, r_l) on site l."""
    n2 = len(r)
    W = np.zeros((n2, 2 * n2))
    for l in range(1, n2 + 1):
        W[l - 1, 2 * l - 2] = -signs[l - 1] * r[l - 1]
        W[l - 1, 2 * l - 1] = r[l - 1]
    return W


def scramble(W, seed, n_rot=80):
    """W behind random same-parity rotations of neighboring sites, which keep its rows isotropic."""
    rng = np.random.default_rng(seed)
    R = W.copy()
    for _ in range(n_rot):
        m = int(rng.integers(3, W.shape[1] + 1))
        R = rotate_columns(R, m, float(rng.uniform(-np.pi, np.pi)))
    return R


def minkowski(W):
    """The form the real stack's rows keep: products over the odd columns less those over the even."""
    return W[:, 0::2] @ W[:, 0::2].T - W[:, 1::2] @ W[:, 1::2].T


def test_rotate_columns_is_orthogonal():
    rng = np.random.default_rng(3)
    R = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    G = R @ R.T
    out = rotate_columns(R, 4, 0.7)
    np.testing.assert_allclose(out @ out.T, G, atol=1e-14)
    back = rotate_columns(out, 4, -0.7)
    np.testing.assert_allclose(back, R, atol=1e-14)
    # columns 2 and 4 only, which keeps the real stack's form
    np.testing.assert_array_equal(out[:, [0, 2, 4, 5]], R[:, [0, 2, 4, 5]])
    W = genuine_stack().W
    np.testing.assert_allclose(minkowski(rotate_columns(W, 7, 0.7)), minkowski(W), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64])
def test_gauged_projector_is_real_and_antisymmetric(n):
    """The gauged projector Q' = stable_projector(...) is a covariance under one sign per
    Majorana, so it is real and antisymmetric as Gamma is, and the stack the fold clears,
    TransferStack.W, is a float64 array whose rows keep the isotropic form."""
    rng = np.random.default_rng(n)
    for baths in (FIG1_BP, GAIN_BP):
        stack = genuine_stack(n, rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0), baths=baths)
        assert stack.Qp.dtype == np.float64
        np.testing.assert_array_equal(stack.Qp, -stack.Qp.T)
        W = stack.W
        assert W.dtype == np.float64
        assert np.abs(minkowski(W)).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_gauged_projector_is_the_covariance_under_one_sign_per_majorana(n):
    """Q' = S Gamma S bit for bit, with S = diag(s) and s = (+1, -1, -1, +1) repeating: the
    signs tns.covariance reads the replayed state's covariance with.  The fold's stack holds
    (I - Q')/2 on its odd columns and (I + Q')/2 on its even ones, bit for bit too."""
    s = gauge_signs(2 * n)
    eye = np.eye(2 * n)
    for baths in (FIG1_BP, GAIN_BP):
        for w, mu in ((0.5, 2.2), (1.5, 0.2), (0.9, 1.0)):
            L = build_liouvillian(build_kitaev(KitaevParams(N=n, w=w, mu=mu, delta=1.0)), end_baths(n, baths))
            spectrum = decompose(L)
            Qp = stable_projector(spectrum)
            np.testing.assert_array_equal(Qp, s[:, None] * spectrum.gamma * s)
            W = build_stack(Qp, n).W
            np.testing.assert_array_equal(W[:, 0::2], (eye - Qp) / 2)
            np.testing.assert_array_equal(W[:, 1::2], (eye + Qp) / 2)


def test_strip_phases_makes_row_real():
    """The gauge leaves nothing to strip: the stack the fold clears is real, and each pair of
    row 1 takes two angles."""
    stack = genuine_stack()
    W = stack.W
    np.testing.assert_allclose(gauged_stack(stack)[:, 1::2], 1j * W[:, 1::2], rtol=0, atol=0)
    angles = clear_row(W, 1)
    assert W.dtype == np.float64
    assert [len(block) for block in angles] == [2, 2, 2]


def test_eliminate_clears_tail():
    W = genuine_stack().W
    clear_row(W, 1)
    assert np.abs(W[0, 2:]).max() < 1e-13
    assert W[0, 0] > 0 and W[0, 1] > 0


def record_ms(k):
    """The records of pair k (1-based, left site): its odd Majoranas' m, then its even ones'."""
    return [2 * k + 1, 2 * k + 2]


def clear_row(W, l):
    """Row l's angles, one list per site pair, clearing from the right end down to k = l."""
    return [eliminate_pair(W, l, k) for k in range(W.shape[0] - 1, l - 1, -1)]


def pair_by_rotation(V, l, k):
    """eliminate_pair one rotation at a time, each angle read off row l after the previous
    rotation reached every row: the rotated copy of V and the pair's (m, theta) records."""
    records = []
    for m in record_ms(k):
        theta = np.arctan2(V[l - 1, m - 1], V[l - 1, m - 3])
        V = rotate_columns(V, m, theta)
        records.append((m, theta))
    return V, records


@pytest.mark.parametrize("l, k", [(1, 3), (1, 1), (2, 3), (3, 3)])
def test_eliminate_pair_clears_site_k_plus_1_and_touches_only_its_columns(l, k):
    W = genuine_stack().W
    for row in range(1, l):
        clear_row(W, row)
        close_row(W, row, row)
    for right in range(3, k, -1):
        eliminate_pair(W, l, right)
    before = W.copy()
    angles = eliminate_pair(W, l, k)
    # the angles of record_ms(k), in that order
    _, ref = pair_by_rotation(before, l, k)
    np.testing.assert_allclose(angles, [theta for _, theta in ref], rtol=0, atol=1e-14)
    assert np.abs(W[l - 1, 2 * k:2 * k + 2]).max() < 1e-14 * np.abs(before[l - 1]).max()
    outside = np.ones(W.shape[1], dtype=bool)
    outside[2 * k - 2:2 * k + 2] = False
    np.testing.assert_array_equal(W[:, outside], before[:, outside])
    # an orthogonal mix of each parity's two columns: every row keeps its norm on each
    for parity in (0, 1):
        cols = slice(2 * k - 2 + parity, 2 * k + 2, 2)
        np.testing.assert_allclose(np.linalg.norm(W[:, cols], axis=1), np.linalg.norm(before[:, cols], axis=1),
                                   rtol=1e-14, atol=1e-15)


def zigzag_sites(n):
    """The site each row pins: 1, 2N, 2, 2N-1, ..., N+1."""
    return [(l + 1) // 2 if l % 2 else 2 * n + 1 - l // 2 for l in range(1, 2 * n)] + [n + 1]


def fold_by_rotation(W):
    """fold's records, each angle read off the row after the previous rotation reached every row:
    odd rows cleared onto the leftmost free site, even rows onto the rightmost on the mirrored
    columns, whose records (m, theta), even Majoranas first, act on the stack as
    (2 rows + 3 - m, -theta), odd first once each pair's two are swapped back."""
    W = np.array(W)
    rows, records, lo, hi = W.shape[0], [], 1, W.shape[0]
    for l in range(1, rows):
        mirrored = l % 2 == 0
        V, first, last = (W[:, ::-1], rows + 1 - hi, rows + 1 - lo) if mirrored else (W, lo, hi)
        for k in range(last - 1, first - 1, -1):
            V, block = pair_by_rotation(V, l, k)
            records += [(2 * rows + 3 - m, -theta) for m, theta in block[::-1]] if mirrored else block
        W, site = (V[:, ::-1], hi) if mirrored else (V, lo)
        W[l:, 2 * site - 2:2 * site] = 0.0
        lo, hi = (lo, hi - 1) if mirrored else (lo + 1, hi)
    return records


@pytest.mark.parametrize("n", [2, 3])
def test_interior_rows_close_with_sign_minus_one(n):
    """The last pair of each interior row leaves (r', r) with r' >= 0 and r > 0 on the columns
    the row was cleared on, so it closes -1 there, the empty mode.  An even row is cleared on
    the mirrored columns onto the rightmost free site, where each site's two columns swap;
    read on the stack's own columns, it closes -1 as well."""
    W = genuine_stack(n=n).W
    rows, lo, hi = 2 * n, 1, 2 * n
    kept = []  # each row's largest entry on its other free sites, once its pairs are cleared
    for l in range(1, rows):
        mirrored = l % 2 == 0
        V, first, last = (W[:, ::-1], rows + 1 - hi, rows + 1 - lo) if mirrored else (W, lo, hi)
        for k in range(last - 1, first - 1, -1):
            eliminate_pair(V, l, k)
        kept.append(np.abs(V[l - 1, 2 * first:2 * last]).max())
        assert V[l - 1, 2 * first - 2] >= 0 and V[l - 1, 2 * first - 1] > 0
        assert close_row(V, l, first) == -1
        assert close_row(W, l, hi if mirrored else lo) == -1
        lo, hi = (lo, hi - 1) if mirrored else (lo + 1, hi)
    result = fold(genuine_stack(n=n))
    assert result.signs[:-1].tolist() == [-1] * (rows - 1)
    assert result.sites.tolist() == zigzag_sites(n)
    # the residual is the largest leftover of any row as it closes, later rotations aside
    assert result.residual == max(kept)


@pytest.mark.parametrize("n", [2, 3])
def test_blocked_pair_update_matches_rotation_by_rotation(n):
    stack = genuine_stack(n=n, w=0.5, mu=2.0)
    rots = fold(stack).rotations
    ref = fold_by_rotation(stack.W)
    assert [m for m, _ in ref] == rots.m.tolist()
    assert rots.kind.tolist() == ["odd", "even"] * (len(ref) // 2)
    np.testing.assert_allclose(rots.theta, [theta for _, theta in ref], rtol=0, atol=1e-14)


def fold_by_steps(W, monkeypatch):
    """fold_real of a copy of W with every site pair eliminated by the step-by-step reference."""
    with monkeypatch.context() as m:
        m.setattr(folding, "eliminate_pair", eliminate_pair_by_steps)
        return fold_real(W.copy())


def assert_same_fold(result, ref):
    for name in ("blocks", "rDiag", "signs", "sites"):
        assert np.array_equal(getattr(result, name), getattr(ref, name)), name
    assert result.residual == ref.residual


@pytest.mark.parametrize("baths", [FIG1_BP, GAIN_BP], ids=["fig1-baths", "gain-only"])
@pytest.mark.parametrize("n", range(1, 9))
def test_fold_kernel_matches_the_step_by_step_pair_bit_for_bit(n, baths, monkeypatch):
    rng = np.random.default_rng(n)
    stack = genuine_stack(n=n, w=rng.uniform(0.1, 2.0), mu=rng.uniform(0.1, 3.0), baths=baths)
    result = fold(stack)
    assert_same_fold(result, fold_by_steps(stack.W, monkeypatch))
    assert result.blocks.angles.shape == (n * (2 * n - 1), 2)


def test_fold_kernel_keeps_the_signs_of_exact_zeros(monkeypatch):
    """Exact zeros reach atan2 with their signs, where -0.0 turns a 0 or pi angle into -0 or
    -pi: on a folded pattern whose zeros are all -0.0 the kernel still matches the reference."""
    W = canonical_pattern(np.array([0.9, 0.3, 1.7, 0.5, 1.1, 0.7]), np.array([1, -1, 1, -1, 1, -1]))
    W[W == 0] = -0.0
    result = fold_real(W.copy())
    assert_same_fold(result, fold_by_steps(W, monkeypatch))
    # the signs are what decides: with every zero +0.0 most of those angles are 0, not -pi
    unsigned = fold_real(W + 0.0)
    assert (np.abs(result.blocks.angles) == np.pi).sum() > (np.abs(unsigned.blocks.angles) == np.pi).sum()


def test_close_row_signs():
    Wp = np.zeros((2, 4))
    Wp[0, 0] = -0.4
    Wp[0, 1] = 0.4
    Wp[1, 0] = 7.0  # a lower row on the pinned site, left as it is
    Wm = Wp.copy()
    before = Wp.copy()
    assert close_row(Wp, 1, 1) == 1
    np.testing.assert_array_equal(Wp, before)

    Wm[0, 0] = 0.4
    assert close_row(Wm, 1, 1) == -1

    # closure acts on the site given, not on the row's index, and writes nothing
    Ws = np.zeros((2, 4))
    Ws[0, 2:] = [0.4, 0.4]
    Ws[1] = 7.0
    before = Ws.copy()
    assert close_row(Ws, 1, 2) == -1
    np.testing.assert_array_equal(Ws, before)


def test_close_row_rejects_non_isotropic_pair():
    W = np.zeros((2, 4))
    W[0, 0] = 0.3
    W[0, 1] = 1.0
    with pytest.raises(ClosureViolation):
        close_row(W, 1, 1)


def test_fold_counts_and_weights():
    for n in (1, 2, 3):
        stack = genuine_stack(n=n)
        result = fold(stack)
        assert len(result.blocks) == n * (2 * n - 1)
        assert result.blocks.angles.shape == (n * (2 * n - 1), 2)
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
            assert np.diff(row.pair).tolist() == [1 if l % 2 == 0 else -1] * (len(row) - 1)
            assert sorted(row.pair.tolist()) == list(range(free[0] - 1, free[-1] - 1))


def test_roles_place_each_step_on_its_pair():
    """Each block holds two records, whose role, the kind of Majorana they rotate, places them:
    the pair's odd Majoranas (gamma~_{2j+1}, gamma~_{2j+3}) at m = 2j + 3, then its even ones
    (gamma~_{2j+2}, gamma~_{2j+4}) at m = 2j + 4, mirrored rows or not."""
    result = fold(genuine_stack(n=3))
    rots = result.rotations
    assert len(rots) == 2 * len(result.blocks)
    assert rots.kind.tolist() == ["odd", "even"] * len(result.blocks)
    m = rots.m.reshape(-1, 2)
    assert (m == 2 * result.blocks.pair[:, None] + [3, 4]).all()
    np.testing.assert_array_equal(rots.theta.reshape(-1, 2), result.blocks.angles)


def test_fold_replay_reproduces_pattern():
    """The records, replayed on the complex gauged stack whose rows the real one stands for,
    leave each row (x, i y) on its pinned site with x = -sign y of magnitude rDiag, and
    nothing else."""
    stack = genuine_stack(n=2)
    result = fold(stack)
    W = replay(gauged_stack(stack), result)
    assert result.sites.tolist() == [1, 4, 2, 3]
    for l, site in enumerate(result.sites.tolist(), start=1):
        x, y = W[l - 1, 2 * site - 2], W[l - 1, 2 * site - 1] / 1j
        assert abs(y) == pytest.approx(result.rDiag[l - 1], abs=1e-12)
        assert x == pytest.approx(-result.signs[l - 1] * y, abs=1e-12)
    # everything outside each row's pinned site is gone
    mask = np.ones(W.shape, dtype=bool)
    for j, site in enumerate(result.sites.tolist()):
        mask[j, 2 * site - 2: 2 * site] = False
    assert np.abs(W[mask]).max() < 1e-12


def test_fold_recovers_scrambled_weights():
    r = np.array([0.9, 0.3, 1.7, 0.5])
    signs = np.array([1, -1, 1, -1])
    W = scramble(canonical_pattern(r, signs), seed=11)
    result = fold_real(W)
    np.testing.assert_allclose(result.rDiag, r, atol=1e-12)
    assert result.residual < 1e-12


def test_fold_gauges_interior_signs_negative():
    """Every Givens angle leaves its kept entry nonnegative, so interior rows always close on
    (r, r), -1.  The pi-rotations doing that act on every row, so a positive interior sign
    propagates a compensating flip into later rows."""
    r = np.array([0.8, 0.6])
    flipped = fold_real(canonical_pattern(r, np.array([1, 1])))
    np.testing.assert_array_equal(flipped.signs, [-1, -1])
    np.testing.assert_allclose(flipped.rDiag, r, atol=1e-14)

    # with a negative row above it, the last row's sign comes through as-is
    plain = fold_real(canonical_pattern(r, np.array([-1, 1])))
    np.testing.assert_array_equal(plain.signs, [-1, 1])
    np.testing.assert_allclose(plain.rDiag, r, atol=1e-14)


def test_fold_zero_row_degenerate():
    """A vanishing row is refused by name, the first row and the last alike."""
    for weights, row in (([0.0, 1.0], 1), ([1.0, 0.0], 2)):
        W = canonical_pattern(np.array(weights), np.array([1, 1]))
        with pytest.raises(ClosureViolation, match=f"row {row} weight"):
            fold_real(W)


def test_fold_refuses_a_non_finite_row():
    """A nan compares false both ways, so the weight check reads "not >= eps_fold" and refuses
    it by name, and a pair with a nan or an infinite entry fails closure without a warning;
    an infinite entry, which the rotations turn into nan, fails it without one too."""
    with pytest.raises(ClosureViolation, match="row 1 weight nan"):
        fold_real(np.full((4, 8), np.nan))
    one_inf = np.zeros((2, 4))
    one_inf[0] = [np.inf, 1.0, 0.0, 0.0]
    for W in (one_inf, np.full((4, 8), np.inf)):
        with pytest.raises(ClosureViolation, match=r"row pair \(inf"):
            fold_real(W)
    for x, y in ((np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf), (np.inf, -np.inf)):
        W = np.zeros((2, 4))
        W[0, :2] = [x, y]
        with pytest.raises(ClosureViolation, match="row pair"):
            close_row(W, 1, 1)


def test_fold_closure_violation():
    """A projector block that is not antisymmetric breaks the rows' mutual isotropy, so a row
    does not close once the rows above it have; a row that is not isotropic on its own does
    not close at all."""
    Qp = np.array([[0, 0.5, 0.2, 0.1], [0.5, 0, 0.3, 0.4], [0.2, 0.3, 0, 0.6], [0.1, 0.4, 0.6, 0]])
    stack = build_stack(Qp, 2)
    assert np.abs(minkowski(stack.W)).max() > 0.1
    with pytest.raises(ClosureViolation, match="row pair"):
        fold(stack)
    W = np.zeros((2, 4))
    W[0, :2] = [0.3, 1.0]
    W[1, 2:] = [-0.5, 0.5]
    with pytest.raises(ClosureViolation, match="row pair"):
        fold_real(W)


def test_last_row_keeps_magnitude_under_residual_phase():
    # a stray overall sign on the last row has no rotation left to remove it
    W = canonical_pattern(np.array([0.7, 1.2]), np.array([-1, -1]))
    W[1] *= -1.0
    result = fold_real(W)
    assert result.rDiag[1] == pytest.approx(1.2, abs=1e-14)
    assert result.signs[1] == -1


def test_folding_one_stack_twice_gives_the_same_result():
    """fold_real clears its input in place, so each fold reads a fresh stack.W and the stack
    itself stays as built."""
    stack = genuine_stack(n=3)
    before = stack.W
    first, second = fold(stack), fold(stack)
    assert_same_fold(first, second)
    assert first.blocks.tobytes() == second.blocks.tobytes()
    assert stack.W.tobytes() == before.tobytes()


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
