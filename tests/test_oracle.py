"""Internal consistency of the brute-force reference solvers."""

import numpy as np
import pytest

from nessfold.exceptions import NonUniqueNess
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths, single_site_bath
from nessfold.oracle import (
    DenseFirstSpaceNess,
    DenseSecondSpaceNess,
    bath_operator_dense,
    build_hamiltonian_dense,
    dense_first_space_ness,
    dense_second_space_ness,
    eec_from_vec,
    lindblad_superoperator,
    majorana_site_matrices,
    occupancy_from_vec,
    second_space_liouvillian,
)
from nessfold.pipeline import solve_end_bath

from helpers import (analytic_n1, dense_coefficients, error_metric, liouvillian_by_channel, mode_majoranas,
                     physical_phases, rho_to_second_space, scalar_eigenvalue, second_space_from_strings)

BP = EndBathParams(gamma11=0.8, gamma21=1.7, gamma12=0.4, gamma22=2.1)


def anticommutator_residual(mats):
    n = len(mats)
    dim = mats[0].shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            ac = mats[i] @ mats[j] + mats[j] @ mats[i]
            target = 2.0 * np.eye(dim) if i == j else np.zeros((dim, dim))
            worst = max(worst, np.abs(ac - target).max())
    return worst


def test_site_majoranas_form_clifford_algebra():
    gams = majorana_site_matrices(2)
    assert anticommutator_residual(gams) == 0.0


def test_mode_majoranas_form_clifford_algebra():
    gams = [g.toarray() for g in mode_majoranas(2)]
    assert anticommutator_residual(gams) == 0.0


def test_hamiltonian_dense_single_site():
    H = build_kitaev(KitaevParams(N=1, w=0.0, mu=3.0, delta=0.0))
    dense = build_hamiltonian_dense(H)
    np.testing.assert_allclose(dense, np.diag([1.5, -1.5]), atol=1e-15)


def test_hamiltonian_dense_is_hermitian():
    H = build_kitaev(KitaevParams(N=3, w=1.4, mu=0.6, delta=0.9))
    dense = build_hamiltonian_dense(H)
    assert np.abs(dense - dense.conj().T).max() < 1e-14


def test_bath_operator_is_ladder():
    # annihilation channel on site 1 of a single site: sqrt(g) c
    chan = single_site_bath(1, 1, "annihilation", 4.0)
    L = bath_operator_dense(chan, majorana_site_matrices(1))
    np.testing.assert_allclose(L, [[0.0, 2.0], [0.0, 0.0]], atol=1e-15)
    chan = single_site_bath(1, 1, "creation", 4.0)
    L = bath_operator_dense(chan, majorana_site_matrices(1))
    np.testing.assert_allclose(L, [[0.0, 0.0], [2.0, 0.0]], atol=1e-15)


def test_superoperator_matches_master_equation():
    params = KitaevParams(N=2, w=1.1, mu=0.7, delta=0.8)
    H = build_kitaev(params)
    gam = majorana_site_matrices(2)
    jumps = [bath_operator_dense(ch, gam) for ch in end_baths(2, BP)]
    Hd = build_hamiltonian_dense(H)
    S = lindblad_superoperator(Hd, jumps).toarray()

    rng = np.random.default_rng(2)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = rho + rho.conj().T
    rhs = -1j * (Hd @ rho - rho @ Hd)
    for L in jumps:
        rhs += 2.0 * L @ rho @ L.conj().T - L.conj().T @ L @ rho - rho @ L.conj().T @ L
    np.testing.assert_allclose((S @ rho.reshape(-1)).reshape(4, 4), rhs, atol=1e-12)


def test_generator_is_quadratic_form_in_mode_majoranas():
    """Dense second-space generator == sum Lmat[j,k] g~_j g~_k + Lscalar/2."""
    params = KitaevParams(N=2, w=1.3, mu=0.9, delta=1.1)
    H = build_kitaev(params)
    chans = end_baths(2, BP)
    Lmat = liouvillian_by_channel(H, chans)
    Lop = second_space_liouvillian(H, chans).toarray()

    gams = [g.toarray() for g in mode_majoranas(4)]
    dim = gams[0].shape[0]
    quad = np.zeros((dim, dim), dtype=complex)
    for j in range(8):
        for k in range(8):
            if Lmat[j, k] != 0.0:
                quad += Lmat[j, k] * gams[j] @ gams[k]
    quad += 0.5 * scalar_eigenvalue(chans) * np.eye(dim)
    assert np.abs(Lop - quad).max() < 1e-12


def test_occupied_state_eigenvalue():
    params = KitaevParams(N=3, w=0.9, mu=1.2, delta=0.7)
    H = build_kitaev(params)
    chans = end_baths(3, BP)
    Lscalar = scalar_eigenvalue(chans)
    Lop = second_space_liouvillian(H, chans)
    e = np.zeros(Lop.shape[0])
    e[-1] = 1.0
    np.testing.assert_allclose(Lop @ e, Lscalar * e, atol=1e-12)
    assert Lscalar < 0


def test_first_space_single_site_matches_analytic():
    bp = EndBathParams(gamma11=1.0, gamma21=2.5)
    ness = dense_first_space_ness(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0),
                                  end_baths(1, bp))
    q = rho_to_second_space(ness.rho)
    assert error_metric(q, analytic_n1(1.0, 2.5)) < 1e-12


def test_first_space_size_cap():
    with pytest.raises(ValueError):
        dense_first_space_ness(KitaevParams(N=4, w=1.0, mu=1.0, delta=1.0),
                               end_baths(4, BP))


def test_second_space_size_cap():
    params = KitaevParams(N=7, w=1.0, mu=1.0, delta=1.0)
    with pytest.raises(ValueError):
        dense_second_space_ness(build_kitaev(params), end_baths(7, BP))


def test_string_conversion_round_trip():
    params = KitaevParams(N=2, w=1.0, mu=0.5, delta=1.2)
    ness = dense_first_space_ness(params, end_baths(2, BP))
    q_tilde = rho_to_second_space(ness.rho)
    # q0 = 2^-N for a trace-1 density matrix
    rebuilt = second_space_from_strings(q_tilde / 4.0, 2)
    np.testing.assert_allclose(rebuilt, ness.rho, atol=1e-12)


def test_vacuum_density_matrix_strings():
    # |0><0| on one site: identity plus the occupation string with weight -1
    rho = np.diag([1.0, 0.0]).astype(complex)
    q = rho_to_second_space(rho)
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0, -1.0], atol=1e-15)


def test_kernel_isolation_guard():
    # purely unitary generator: the kernel is massively degenerate
    params = KitaevParams(N=2, w=1.0, mu=0.5, delta=1.0)
    with pytest.raises(NonUniqueNess):
        dense_second_space_ness(build_kitaev(params), [])
    # the physical degeneracy line, visible to the dense route at N=4 as well
    bp = EndBathParams(gamma21=1.0, gamma22=1.0)
    params = KitaevParams(N=4, w=1.0, mu=0.0, delta=1.0)
    with pytest.raises(NonUniqueNess):
        dense_second_space_ness(build_kitaev(params), end_baths(4, bp))


def test_first_space_density_matrix_validation():
    with pytest.raises(ValueError):
        DenseFirstSpaceNess(rho=np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DenseFirstSpaceNess(rho=np.array([[0.7, 0.0], [0.0, 0.7]]))
    with pytest.raises(ValueError):
        DenseFirstSpaceNess(rho=np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_second_space_vector_validation():
    bad = np.zeros(16, dtype=complex)
    bad[0] = 1.0
    bad[1] = 0.5  # odd-parity slot
    with pytest.raises(ValueError):
        DenseSecondSpaceNess(vec=bad)
    with pytest.raises(ValueError):
        DenseSecondSpaceNess(vec=np.ones(10, dtype=complex))


def test_vector_observables_match_pipeline():
    params = KitaevParams(N=2, w=1.4, mu=0.9, delta=1.0)
    sol = solve_end_bath(params, BP)
    vec = sol.state.z0 * physical_phases(4) * dense_coefficients(sol.state)
    assert eec_from_vec(vec, 2) == pytest.approx(sol.report.eec, rel=1e-10)
    for j in (1, 2):
        assert occupancy_from_vec(vec, 2, j) == pytest.approx(
            sol.report.occupancy[j - 1], abs=1e-10
        )


def test_first_and_second_space_kernels_agree_at_n3():
    """The first-space oracle's dense kernel at its largest size, N=3, must reproduce
    the second-space oracle's on the same problem."""
    params = KitaevParams(N=3, w=0.8, mu=1.6, delta=1.0)
    chans = end_baths(3, BP)
    first = rho_to_second_space(dense_first_space_ness(params, chans).rho)
    second = dense_second_space_ness(build_kitaev(params), chans).vec
    assert error_metric(first, second) < 1e-10


def test_analytic_n1_validation():
    np.testing.assert_allclose(analytic_n1(1.0, 3.0), [1, 0, 0, 0.5])
    with pytest.raises(ValueError):
        analytic_n1(0.0, 0.0)
    with pytest.raises(ValueError):
        analytic_n1(-1.0, 2.0)


def test_error_metric_validation():
    with pytest.raises(ValueError):
        error_metric(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        error_metric(np.ones(3), np.zeros(3))
    assert error_metric(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0
