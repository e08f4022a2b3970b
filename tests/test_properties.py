"""Randomized cross-checks tying independent code paths to each other."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nessfold.exceptions import NessfoldError
from nessfold.folding import fold_real
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.oracle import dense_second_space_ness
from nessfold.pipeline import solve_end_bath
from nessfold.spectral import build_liouvillian, decompose
from nessfold.tns import product_state

from helpers import (apply_gate, dense_coefficients, error_metric, liouvillian_by_channel, physical_phases,
                     reference_projector, replay, rotate_columns, scalar_eigenvalue)

SUITE_SETTINGS = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def chain_cases(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    params = KitaevParams(
        N=n,
        w=draw(st.floats(-3, 3, **finite)),
        mu=draw(st.floats(-3, 3, **finite)),
        delta=draw(st.floats(-2, 2, **finite)),
    )
    baths = EndBathParams(*(draw(st.floats(0.2, 3, **finite)) for _ in range(4)))
    return params, baths


@st.composite
def scrambled_stacks(draw):
    """A real stack in already-folded shape, hidden behind random same-parity rotations."""
    n = draw(st.integers(1, 3))
    rows = 2 * n
    r = np.array([draw(st.floats(0.1, 2.0, **finite)) for _ in range(rows)])
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(rows)]
    W = np.zeros((rows, 2 * rows))
    for l in range(1, rows + 1):
        W[l - 1, 2 * l - 2] = -signs[l - 1] * r[l - 1]
        W[l - 1, 2 * l - 1] = r[l - 1]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    for _ in range(60):
        m = int(rng.integers(3, 2 * rows + 1))
        W = rotate_columns(W, m, float(rng.uniform(-np.pi, np.pi)))
    return n, r, W


@SUITE_SETTINGS
@given(scrambled_stacks())
def test_fold_recovers_row_weights_from_scrambled_stacks(case):
    # row weights survive any rotation history; closure signs are gauge and may not
    n, r, W = case
    result = fold_real(W.copy())
    assert len(result.blocks) == n * (2 * n - 1)
    assert result.residual <= 1e-10
    assert np.allclose(result.rDiag, r, atol=1e-9)
    assert set(np.unique(result.signs)) <= {-1, 1}
    replayed = replay(W, result)
    for l, site in enumerate(result.sites.tolist(), start=1):
        assert abs(abs(replayed[l - 1, 2 * site - 1]) - r[l - 1]) <= 1e-9


def sign_function(M: np.ndarray) -> np.ndarray:
    """Matrix sign function by the Newton iteration S <- (S + S^-1) / 2 (Roberts, Int. J.
    Control 32, 677, 1980), run to a fixed point.  scipy's signm goes through a Schur-Parlett
    evaluation that breaks down on repeated eigenvalues, as on uncoupled sites with equal
    rates."""
    S = np.array(M, dtype=complex)
    for _ in range(200):
        nxt = (S + np.linalg.inv(S)) / 2.0
        if np.abs(nxt - S).max() <= 1e-12 * np.abs(nxt).max():  # the error is then about its square
            return nxt
        S = nxt
    raise AssertionError("the sign iteration did not converge")


@SUITE_SETTINGS
@given(chain_cases())
def test_projector_matches_matrix_sign_function(case):
    params, baths = case
    H, chans = build_kitaev(params), end_baths(params.N, baths)
    try:
        decompose(build_liouvillian(H, chans))
    except NessfoldError:
        assume(False)
    Lmat = liouvillian_by_channel(H, chans)
    S = reference_projector(Lmat)
    ref = 0.5 * (np.eye(4 * params.N) + sign_function(-4.0 * Lmat))
    assert np.max(np.abs(S - ref)) <= 1e-8


@st.composite
def gate_sequences(draw):
    n_sites = draw(st.integers(2, 4))
    bits = [draw(st.sampled_from([0, 1])) for _ in range(n_sites)]
    length = draw(st.integers(1, 12))
    rots = [
        (draw(st.integers(2, 2 * n_sites)), draw(st.floats(-2 * np.pi, 2 * np.pi, **finite)))
        for _ in range(length)
    ]
    return bits, rots


@SUITE_SETTINGS
@given(gate_sequences())
def test_gate_sequence_inverts_exactly(case):
    bits, rots = case
    state = product_state(bits, trunc_tol=0.0)
    ref = dense_coefficients(state).copy()
    for m, theta in rots:
        apply_gate(state, m, theta)
    for m, theta in reversed(rots):
        apply_gate(state, m, -theta)
    assert np.max(np.abs(dense_coefficients(state) - ref)) <= 1e-11


@SUITE_SETTINGS
@given(st.integers(1, 3), st.lists(st.floats(0, 5, **finite), min_size=4, max_size=4))
def test_scalar_term_tracks_total_rate(n, rates):
    # holds with zero-rate channels dropped from the bath list
    baths = end_baths(n, EndBathParams(*rates))
    assert scalar_eigenvalue(baths) == pytest.approx(-2.0 * sum(rates), abs=1e-12)


@SUITE_SETTINGS
@given(chain_cases(max_n=3))
def test_pipeline_matches_dense_kernel_on_random_chains(case):
    params, bp = case
    try:
        sol = solve_end_bath(params, bp)
        ref = dense_second_space_ness(build_kitaev(params), end_baths(params.N, bp))
    except NessfoldError:
        assume(False)
    vec = sol.state.z0 * physical_phases(sol.state.sites) * dense_coefficients(sol.state)
    assert error_metric(vec, ref.vec) <= 1e-9
