"""Tensor-state mechanics: gates, truncation bookkeeping, gauge moves, amplitudes."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from nessfold import tns
from nessfold.exceptions import VacuumVanishes
from nessfold.folding import _PAIR_STEPS, ROTATION_DTYPE, FoldResult, fold
from nessfold.liouvillian import build_liouvillian
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.pipeline import solve_end_bath
from nessfold.spectral import build_stack, decompose, stable_projector
from nessfold.tns import (
    TensorState,
    _pair_gates,
    _update_pair,
    apply_inverse_sequence,
    coefficient,
    dense_coefficients,
    normalize_vacuum,
    product_state,
)

from helpers import apply_gate, rotation_gate


def dense_gate(n_sites, m, theta):
    site, span = (m // 2, 1) if m % 2 == 0 else ((m - 1) // 2, 2)
    left = np.eye(2 ** (site - 1))
    right = np.eye(2 ** (n_sites - site - span + 1))
    return np.kron(np.kron(left, rotation_gate(m, theta)), right)


def random_rotations(rng, n_sites, count):
    return [(int(rng.integers(2, 2 * n_sites + 1)), float(rng.uniform(-np.pi, np.pi)))
            for _ in range(count)]


def assert_parity_blocked(state, bits):
    """Every entry the parity-sorted bonds forbid is exactly zero."""
    assert state.even[0] == 1
    assert state.even[-1] == 1 - sum(bits) % 2
    for j, t in enumerate(state.tensors):
        assert 0 <= state.even[j] <= t.shape[0]
        left = np.arange(t.shape[0]) >= state.even[j]
        right = np.arange(t.shape[2]) >= state.even[j + 1]
        allowed = (left[:, None, None] ^ np.array([False, True])[None, :, None]) == right[None, None, :]
        assert np.all(t[~allowed] == 0.0)


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
    """Leaving each update's singular values on the side of the next block must not change the
    represented state."""
    bp = EndBathParams(gamma11=0.2, gamma21=1.0, gamma12=0.5, gamma22=1.3)
    params = KitaevParams(N=2, w=1.2, mu=0.7, delta=1.0)
    L = build_liouvillian(build_kitaev(params), end_baths(2, bp))
    result = fold(build_stack(stable_projector(decompose(L)), 2))
    bits = result.bits

    gauged = product_state(bits, trunc_tol=0.0)
    apply_inverse_sequence(gauged, result)

    naive = product_state(bits, trunc_tol=0.0)
    for rot in reversed(result.rotations):
        if rot.theta != 0.0:
            apply_gate(naive, int(rot.m), -float(rot.theta))

    np.testing.assert_allclose(
        dense_coefficients(gauged), dense_coefficients(naive), atol=1e-12
    )


def is_left_orthonormal(t):
    flat = t.reshape(-1, t.shape[2])
    return np.allclose(flat.conj().T @ flat, np.eye(t.shape[2]), atol=1e-10)


def is_right_orthonormal(t):
    flat = t.reshape(t.shape[0], -1)
    return np.allclose(flat @ flat.conj().T, np.eye(t.shape[0]), atol=1e-10)


@pytest.mark.parametrize("center_left", [True, False], ids=["left", "right"])
def test_update_pair_leaves_the_center_on_either_site(center_left):
    """The singular values go to the site asked for; the other site keeps the orthonormal factor."""
    rng = np.random.default_rng(8)
    state = product_state([0, 1, 0, 0], trunc_tol=0.0)
    for m, theta in random_rotations(rng, 4, 30):
        apply_gate(state, m, theta)
    dense = dense_gate(4, 5, 0.7) @ dense_coefficients(state)
    _update_pair(state, 1, _pair_gates([1], [[5]], [[0.7]])[0], center_left=center_left)
    np.testing.assert_allclose(dense_coefficients(state), dense, atol=1e-12)
    left, right = state.tensors[1:3]
    assert is_right_orthonormal(right) == center_left
    assert is_left_orthonormal(left) != center_left
    assert_parity_blocked(state, [0, 1, 0, 0])


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
    with pytest.raises(ValueError, match="occupation must be 0 or 1, got -1"):
        coefficient(state, [-1, -1, 0])
    with pytest.raises(ValueError, match="occupation must be 0 or 1, got 2"):
        coefficient(state, [2, 0, 0])


def test_vacuum_normalization():
    state = product_state([0, 0])
    assert coefficient(state, [0] * state.sites) == 1.0
    z0 = normalize_vacuum(state)
    assert z0 == 1.0
    assert state.z0 == 1.0


def test_vacuum_vanishes_on_occupied_state():
    state = product_state([1, 1, 1])
    assert coefficient(state, [0] * state.sites) == 0.0
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


@pytest.mark.parametrize("n, max_chi", [(4, 0), (6, 8)])
def test_replay_keeps_bonds_parity_sorted(n, max_chi):
    sol = solve_end_bath(KitaevParams(N=n, w=0.5, mu=2.0, delta=1.0),
                         EndBathParams(gamma11=0.2, gamma21=1.0, gamma12=0.5, gamma22=1.3), max_chi=max_chi)
    assert (sol.state.discardedWeight > 1e-6) == (max_chi > 0)
    assert_parity_blocked(sol.state, sol.foldResult.bits)
    # the dense view the benchmark contracts: (left, 2, right) arrays with the state's norm
    dims, E = sol.state.bondDims, np.ones((1, 1), dtype=complex)
    for j, t in enumerate(sol.state.tensors):
        assert t.shape == (dims[j], 2, dims[j + 1])
        E = np.tensordot(t.conj(), np.tensordot(E, t, axes=([1], [0])), axes=([0, 1], [0, 1]))
    assert np.sqrt(abs(E[0, 0])) == pytest.approx(np.linalg.norm(dense_coefficients(sol.state)), rel=1e-12)


def test_random_gates_keep_bonds_parity_sorted():
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2, size=5).tolist()
    state = product_state(bits, trunc_tol=0.0)
    assert_parity_blocked(state, bits)
    for m, theta in random_rotations(rng, 5, 40):
        apply_gate(state, m, theta)
    assert max(state.bondDims) > 2
    assert_parity_blocked(state, bits)


def test_cap_breaks_a_tie_across_parity_sectors():
    # two equal Schmidt values across bond 1, one per parity: the cap keeps exactly one
    state = product_state([0, 0, 1])
    apply_gate(state, 5, np.pi / 2)
    state.maxChi = 1
    apply_gate(state, 3, np.pi / 2)
    assert state.bondDims[1] == 1
    assert state.discardedWeight == pytest.approx(0.5, abs=1e-14)
    assert_parity_blocked(state, [0, 0, 1])


def pair_record_dense(j, m, theta):
    """Dense 4x4 of one record on the site pair (j, j+1), 0-based, left site first."""
    if m % 2:
        return rotation_gate(m, theta)
    phase = rotation_gate(m, theta)
    return np.kron(phase, np.eye(2)) if m == 2 * j + 2 else np.kron(np.eye(2), phase)


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
def test_pair_gates_match_dense_block_products(mirrored):
    """Each block's sector mix is the dense product of its records, in the fold's per-pair
    pattern: entry [q, x, pa, pb] takes the legs (pa^q, pb^q) to (pa^x, pb^x)."""
    rng = np.random.default_rng(11)
    steps = [i for i, _ in _PAIR_STEPS[::-1]]
    pairs = rng.integers(0, 5, size=8)
    ms = np.array([[2 * j + 4 - i if mirrored else 2 * j + 2 + i for i in steps] for j in pairs])
    thetas = rng.uniform(-np.pi, np.pi, ms.shape) * (rng.random(ms.shape) > 0.2)
    gates = _pair_gates(pairs, ms, thetas)
    assert gates.shape == (len(pairs), 2, 2, 2, 2)
    for j, row, angles, gate in zip(pairs.tolist(), ms.tolist(), thetas.tolist(), gates):
        dense = np.eye(4, dtype=complex)
        for m, theta in zip(row, angles):
            dense = pair_record_dense(j, m, theta) @ dense
        expected = np.zeros((2, 2, 2, 2), dtype=complex)
        for q, x, pa, pb in itertools.product((0, 1), repeat=4):
            expected[q, x, pa, pb] = dense[2 * (pa ^ x) + (pb ^ x), 2 * (pa ^ q) + (pb ^ q)]
        np.testing.assert_allclose(gate, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("s_even, s_odd", [((0.5, 0.25), (0.25, 0.125)), ((0.25, 0.125), (0.5, 0.25))],
                         ids=["even-top", "odd-top"])
def test_cap_splits_a_cross_sector_tie_by_the_stable_ranking(s_even, s_odd):
    """Schmidt values tied across the cut's parity sectors at a cap of 2 split as the stable
    ranking of both sectors does, sector 0 first on ties, and the state keeps exactly the
    Schmidt terms that ranking keeps."""
    # isometric end sites around a pair whose cut sectors are diag(s_even) and diag(s_odd), so
    # those are the Schmidt values of bond 2 and row k of sector q's block in R is its term
    R = np.vstack((np.diag(s_even), np.diag(s_odd))).astype(complex)
    matrices = [np.ones((1, 2), dtype=complex), np.hstack((np.eye(2), np.eye(2))).astype(complex), R,
                np.ones((2, 1), dtype=complex)]
    state = TensorState(matrices=matrices, even=[1, 1, 2, 1, 1], truncTol=0.0, maxChi=2)
    values = np.concatenate((s_even, s_odd))
    kept = np.argsort(-values, kind="stable")[:2]
    dropped = np.setdiff1d(np.arange(4), kept)
    truncated = TensorState(matrices=[*matrices[:2], R.copy(), matrices[3]], even=list(state.even))
    truncated.matrices[2][dropped] = 0.0

    _update_pair(state, 1, _pair_gates([1], [[5]], [[0.0]])[0])
    assert state.bondDims[2] == 2
    assert state.even[2] == int(np.count_nonzero(kept < 2))
    assert state.discardedWeight == pytest.approx(float((values[dropped] ** 2).sum() / (values ** 2).sum()),
                                                  rel=0, abs=1e-15)
    np.testing.assert_allclose(dense_coefficients(state), dense_coefficients(truncated), rtol=0, atol=1e-14)


def test_gesvd_fallback_factorizes_each_parity_block(monkeypatch):
    rng = np.random.default_rng(5)
    state = product_state([1, 0, 0], trunc_tol=0.0)
    dense = dense_coefficients(state)
    for m, theta in random_rotations(rng, 3, 12):
        apply_gate(state, m, theta)
        dense = dense_gate(3, m, theta) @ dense
    gesdd, gesvd = np.linalg.svd, scipy.linalg.svd
    failures, drivers = [np.linalg.LinAlgError("SVD did not converge")], []

    def flaky(*args, **kwargs):
        if failures:
            raise failures.pop()
        return gesdd(*args, **kwargs)

    def counted(*args, **kwargs):
        drivers.append(kwargs.get("lapack_driver"))
        return gesvd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    monkeypatch.setattr(scipy.linalg, "svd", counted)
    apply_gate(state, 5, 0.7)
    assert not failures
    assert drivers == ["gesvd", "gesvd"]
    np.testing.assert_allclose(dense_coefficients(state), dense_gate(3, 5, 0.7) @ dense, atol=1e-12)


def test_one_svd_call_per_two_site_gate(monkeypatch):
    """The traced benchmark charges exactly one numpy.linalg.svd call to each site-pair block,
    sum over rows l < 2N of 2N - l, that is 28 at N=4, and no numpy.linalg.qr call: the center
    never walks."""
    svd, qr, shapes, qr_calls = np.linalg.svd, np.linalg.qr, [], []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counted_qr(a, *args, **kwargs):
        qr_calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    solve_end_bath(KitaevParams(N=4, w=0.5, mu=2.0, delta=1.0), EndBathParams(gamma21=1.0, gamma22=1.0))
    assert len(shapes) == sum(8 - l for l in range(1, 8)) == 28
    assert all(len(shape) == 3 and shape[0] == 2 for shape in shapes)
    assert qr_calls == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fused_replay_matches_record_by_record_gates(n):
    sol = solve_end_bath(KitaevParams(N=n, w=0.5, mu=2.0, delta=1.0), EndBathParams(gamma21=1.0, gamma22=1.0),
                         trunc_tol=0.0)
    rots = sol.foldResult.rotations
    naive = product_state(sol.foldResult.bits, trunc_tol=0.0)
    for m, theta in zip(rots.m[::-1].tolist(), rots.theta[::-1].tolist()):
        apply_gate(naive, m, -theta)
    np.testing.assert_allclose(dense_coefficients(sol.state), dense_coefficients(naive), rtol=0, atol=1e-12)
    assert sol.state.discardedWeight == 0.0


def fold_layout_records(rng, pairs, mirrored, zero_block):
    """Fold-layout records, in application order, whose reversed blocks act on `pairs` (0-based):
    block b is _PAIR_STEPS on pair j, at m = 2j + 2 + i or, if mirrored[b], at m = 2j + 4 - i as
    from a row cleared on the mirrored columns, at random angles, some of them zero, all of
    block `zero_block` zero."""
    records = []
    for b, (j, mirror) in enumerate(zip(pairs, mirrored)):
        thetas = rng.uniform(-np.pi, np.pi, len(_PAIR_STEPS)) * (rng.random(len(_PAIR_STEPS)) > 0.3)
        block = [(2 * j + 4 - i if mirror else 2 * j + 2 + i, 0.0 if b == zero_block else float(t), kind)
                 for (i, kind), t in zip(_PAIR_STEPS, thetas)]
        records = block + records
    return records


def fold_result(records, n_sites):
    return FoldResult(rotations=np.rec.fromrecords(records, dtype=ROTATION_DTYPE), rDiag=np.ones(n_sites),
                      signs=np.ones(n_sites, dtype=int), sites=np.arange(1, n_sites + 1), residual=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_replay_matches_dense_gates(seed):
    """Random blocks in the fold's layout, either pattern, zero angles and an all-zero block
    included, replay as the dense gate product: each next block sits at most one pair left or
    right of the last one, or on the same pair."""
    rng = np.random.default_rng(seed)
    n_sites = 5
    pairs = [n_sites - 2]
    for _ in range(15):
        pairs.append(int(np.clip(pairs[-1] + rng.integers(-1, 2), 0, n_sites - 2)))
    records = fold_layout_records(rng, pairs, rng.random(len(pairs)) < 0.5, zero_block=4)
    bits = rng.integers(0, 2, size=n_sites).tolist()
    state = product_state(bits, trunc_tol=0.0)
    dense = dense_coefficients(state)
    apply_inverse_sequence(state, fold_result(records, n_sites))
    for m, theta, _ in reversed(records):
        dense = dense_gate(n_sites, m, -theta) @ dense
    np.testing.assert_allclose(dense_coefficients(state), dense, rtol=0, atol=1e-12)
    assert_parity_blocked(state, bits)


def test_every_update_finds_the_center_on_its_pair(monkeypatch):
    """Before each two-site update of the fold's replay, the sites left of the pair are
    left-orthonormal and those right of it right-orthonormal, so every truncation sees the
    pair's Schmidt values."""
    update, pairs = tns._update_pair, []

    def checked(state, j, gate, center_left=False):
        tensors = state.tensors
        assert all(is_left_orthonormal(t) for t in tensors[:j])
        assert all(is_right_orthonormal(t) for t in tensors[j + 2:])
        pairs.append(j)
        update(state, j, gate, center_left)

    monkeypatch.setattr(tns, "_update_pair", checked)
    sol = solve_end_bath(KitaevParams(N=3, w=0.5, mu=2.0, delta=1.0), EndBathParams(gamma21=1.0, gamma22=1.0))
    # row 5 on pair (3, 4), row 4 descending from (4, 5), row 3 ascending from (2, 3), ...
    assert pairs[:4] == [2, 3, 2, 1]
    assert len(pairs) == sum(6 - l for l in range(1, 6))
    assert sol.foldResult.sites.tolist() == [1, 6, 2, 5, 3, 4]


# records in application order: the blocks of pairs 0, 1, 2 from one left-pinned row, replayed as 2, 1, 0
@pytest.mark.parametrize("edit, message", [
    (lambda recs: recs[:-1], "blocks of 5"),
    (lambda recs: recs + recs[:2], "blocks of 5"),
    (lambda recs: [recs[1], recs[0]] + recs[2:], "per-pair patterns"),
    (lambda recs: recs[:10] + [(m + 2, t, k) for m, t, k in recs[10:]], "outside the chain"),
    (lambda recs: recs[5:] + recs[:5], "skips past the orthogonality center"),
    (lambda recs: recs[5:10] + recs[:5] + recs[10:], "skips past the orthogonality center"),
], ids=["short", "long", "swapped", "outside", "rightward", "leftward"])
def test_replay_refuses_records_outside_the_fold_layout(edit, message):
    records = fold_layout_records(np.random.default_rng(3), [2, 1, 0], [False] * 3, zero_block=-1)
    apply_inverse_sequence(product_state([0, 0, 0, 0]), fold_result(records, 4))  # the layout as built replays
    state = product_state([0, 0, 0, 0])
    with pytest.raises(ValueError, match=message):
        apply_inverse_sequence(state, fold_result(edit(records), 4))
    assert state.bondDims == [1] * 5
