"""Tensor-state mechanics: gates, truncation bookkeeping, gauge moves, amplitudes."""

import numpy as np
import pytest

from nessfold.exceptions import VacuumVanishes
from nessfold.folding import fold
from nessfold.liouvillian import build_liouvillian
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.spectral import build_stack, decompose, stable_projector
from nessfold.tns import (
    apply_gate,
    apply_inverse_sequence,
    coefficient,
    dense_coefficients,
    normalize_vacuum,
    product_state,
    rotation_gate,
    vacuum_amplitude,
)


def dense_gate(n_sites, m, theta):
    site, span = (m // 2, 1) if m % 2 == 0 else ((m - 1) // 2, 2)
    left = np.eye(2 ** (site - 1))
    right = np.eye(2 ** (n_sites - site - span + 1))
    return np.kron(np.kron(left, rotation_gate(m, theta)), right)


def random_rotations(rng, n_sites, count):
    return [(int(rng.integers(2, 2 * n_sites + 1)), float(rng.uniform(-np.pi, np.pi)))
            for _ in range(count)]


def test_product_state_is_basis_vector():
    state = product_state([1, 0, 1])
    dense = dense_coefficients(state)
    idx = 0b101
    expected = np.zeros(8)
    expected[idx] = 1.0
    np.testing.assert_allclose(dense, expected)
    assert state.bondDims == [1, 1, 1, 1]


def test_product_state_validation():
    with pytest.raises(ValueError):
        product_state([])
    with pytest.raises(ValueError):
        product_state([0, 2])


def test_rotation_gate_layout():
    assert rotation_gate(6, 0.4).shape == (2, 2)
    assert rotation_gate(5, 0.4).shape == (4, 4)
    np.testing.assert_allclose(rotation_gate(4, 0.0), np.eye(2))
    # even m acts on site m/2 alone, odd m on sites ((m-1)/2, (m+1)/2)
    state = product_state([0, 0, 0], trunc_tol=0.0)
    apply_gate(state, 6, 0.4)
    np.testing.assert_allclose(dense_coefficients(state), dense_gate(3, 6, 0.4)[:, 0])
    apply_gate(state, 5, 0.4)
    np.testing.assert_allclose(dense_coefficients(state),
                               dense_gate(3, 5, 0.4) @ dense_gate(3, 6, 0.4)[:, 0])


def test_apply_gate_matches_dense_action():
    rng = np.random.default_rng(17)
    n = 3
    state = product_state([0, 1, 0], trunc_tol=0.0)
    dense = dense_coefficients(state)
    for m, theta in random_rotations(rng, n, 25):
        apply_gate(state, m, theta)
        dense = dense_gate(n, m, theta) @ dense
    np.testing.assert_allclose(dense_coefficients(state), dense, atol=1e-12)
    assert state.discardedWeight == 0.0


def test_apply_gate_site_bounds():
    state = product_state([0, 0])
    with pytest.raises(ValueError):
        apply_gate(state, 6, 0.3)  # site 3
    with pytest.raises(ValueError):
        apply_gate(state, 5, 0.3)  # pair (2, 3)
    with pytest.raises(ValueError):
        apply_gate(state, 1, 0.3)  # pair (0, 1)


def test_truncation_cap_and_bookkeeping():
    rng = np.random.default_rng(4)
    state = product_state([0, 0, 0, 0], max_chi=1)
    for m, theta in random_rotations(rng, 4, 40):
        apply_gate(state, m, theta)
    assert all(b == 1 for b in state.bondDims)
    assert state.discardedWeight > 0.0
    assert state.maxBondSeen == 1


def test_untruncated_run_tracks_bond_growth():
    rng = np.random.default_rng(9)
    state = product_state([0, 0, 0], trunc_tol=0.0)
    for m, theta in random_rotations(rng, 3, 30):
        apply_gate(state, m, theta)
    assert state.maxBondSeen >= 2
    assert state.maxBondSeen == max(state.bondDims)


def test_inverse_sequence_gauge_moves_are_exact():
    """The center-shifting QR sweeps must not change the represented state."""
    bp = EndBathParams(gamma11=0.2, gamma21=1.0, gamma12=0.5, gamma22=1.3)
    params = KitaevParams(N=2, w=1.2, mu=0.7, delta=1.0)
    L = build_liouvillian(build_kitaev(params), end_baths(2, bp))
    result = fold(build_stack(stable_projector(decompose(L)), 2))
    bits = [(1 + int(s)) // 2 for s in result.signs]

    gauged = product_state(bits, trunc_tol=0.0)
    apply_inverse_sequence(gauged, result)

    naive = product_state(bits, trunc_tol=0.0)
    for rot in reversed(result.rotations):
        if rot.theta != 0.0:
            apply_gate(naive, int(rot.m), -float(rot.theta))

    np.testing.assert_allclose(
        dense_coefficients(gauged), dense_coefficients(naive), atol=1e-12
    )


def test_coefficient_matches_dense_vector():
    rng = np.random.default_rng(23)
    state = product_state([0, 0, 0], trunc_tol=0.0)
    for m, theta in random_rotations(rng, 3, 20):
        apply_gate(state, m, theta)
    dense = dense_coefficients(state)
    for idx in range(8):
        bits = [(idx >> (2 - k)) & 1 for k in range(3)]
        assert coefficient(state, bits) == pytest.approx(dense[idx], abs=1e-13)
    with pytest.raises(ValueError):
        coefficient(state, [0, 0])


def test_vacuum_normalization():
    state = product_state([0, 0])
    assert vacuum_amplitude(state) == 1.0
    z0 = normalize_vacuum(state)
    assert z0 == 1.0
    assert state.z0 == 1.0


def test_vacuum_vanishes_on_occupied_state():
    state = product_state([1, 1, 1])
    assert vacuum_amplitude(state) == 0.0
    with pytest.raises(VacuumVanishes):
        normalize_vacuum(state)


def test_two_site_gate_entangles_as_expected():
    # exp(theta/2 g~3 g~4) on |00>: cos(theta/2)|00> + i sin(theta/2)|11>
    theta = 0.9
    state = product_state([0, 0])
    apply_gate(state, 3, theta)
    dense = dense_coefficients(state)
    np.testing.assert_allclose(
        dense,
        [np.cos(theta / 2), 0.0, 0.0, 1j * np.sin(theta / 2)],
        atol=1e-14,
    )
