"""Transfer-stack reduction: rotations, closure, bookkeeping, synthetic failures."""

import numpy as np
import pytest

from nessfold.exceptions import ClosureViolation, StackDegenerate
from nessfold.folding import (
    FoldResult,
    close_row,
    eliminate_row,
    expected_rotation_count,
    fold,
    strip_phases_row,
)
from nessfold.liouvillian import build_liouvillian
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.spectral import TransferStack, build_stack, decompose, stable_projector

from helpers import replay, rotate_columns

BP = EndBathParams(gamma11=0.3, gamma21=1.0, gamma12=0.6, gamma22=1.4)


def genuine_stack(n=2, w=1.1, mu=0.8, delta=1.0):
    L = build_liouvillian(build_kitaev(KitaevParams(N=n, w=w, mu=mu, delta=delta)),
                          end_baths(n, BP))
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


def test_strip_phases_makes_row_real():
    stack = genuine_stack()
    W = stack.R.copy()
    rots = strip_phases_row(W, 1)
    assert np.abs(W[0, 1:].imag).max() < 1e-14
    assert [(m, kind) for m, _, kind in rots] == [(m, "U") for m in range(stack.R.shape[1], 1, -1)]


def test_eliminate_clears_tail():
    stack = genuine_stack()
    W = stack.R.copy()
    strip_phases_row(W, 1)
    rots = eliminate_row(W, 1)
    assert np.abs(W[0, 2:]).max() < 1e-13
    assert W[0, 1].real > 0
    assert [(m, kind) for m, _, kind in rots] == [(m, "V") for m in range(stack.R.shape[1], 2, -1)]


def test_close_row_signs():
    Wp = np.zeros((2, 4), dtype=complex)
    Wp[0, 0] = 0.4j
    Wp[0, 1] = 0.4
    Wp[1, 0] = 7.0  # must be zeroed
    Wm = Wp.copy()
    assert close_row(Wp, 1) == 1
    assert Wp[1, 0] == 0.0

    Wm[0, 0] = -0.4j
    assert close_row(Wm, 1) == -1


def test_close_row_rejects_non_isotropic_pair():
    W = np.zeros((2, 4), dtype=complex)
    W[0, 0] = 0.3
    W[0, 1] = 1.0
    with pytest.raises(ClosureViolation):
        close_row(W, 1)


def test_fold_counts_and_weights():
    for n in (1, 2, 3):
        stack = genuine_stack(n=n)
        result = fold(stack)
        assert len(result.rotations) == expected_rotation_count(n)
        assert result.rDiag.shape == (2 * n,)
        assert np.all(result.rDiag > 0)
        assert set(result.signs.tolist()) <= {-1, 1}
        assert result.residual < 1e-12


def test_fold_replay_reproduces_pattern():
    stack = genuine_stack(n=2)
    result = fold(stack)
    W = replay(stack.R, result)
    for l in range(1, 5):
        assert abs(W[l - 1, 2 * l - 1]) == pytest.approx(result.rDiag[l - 1], abs=1e-12)
        assert abs(W[l - 1, 2 * l - 2]) == pytest.approx(result.rDiag[l - 1], abs=1e-12)
    # everything outside the diagonal pairs is gone
    mask = np.ones(W.shape, dtype=bool)
    for j in range(W.shape[0]):
        mask[j, 2 * j: 2 * j + 2] = False
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
    R = canonical_pattern(np.array([0.0, 1.0]), np.array([1, 1]))
    with pytest.raises(StackDegenerate):
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
        result.rotations.theta[0] = 5.0
    assert isinstance(result, FoldResult)
