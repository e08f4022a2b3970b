"""Mode decomposition, stable projector, and transfer stack assembly, against the 4N reference."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from nessfold.cli import _FIG1_BATHS, _FIG1_PARAMS
from nessfold.exceptions import NonUniqueNess, SingularEigenbasis
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.oracle import dense_second_space_ness, eec_from_vec, occupancy_from_vec
from nessfold.pipeline import solve_end_bath
from nessfold.spectral import (
    LiouvillianCoeffs,
    TransferStack,
    build_liouvillian,
    build_stack,
    decompose,
    gauge_phase,
    gaussian_report,
    orthogonality_residual,
    stable_projector,
)

from helpers import liouvillian_by_channel, pair_basis, reference_projector, reference_spectrum, reference_stack

BP = EndBathParams(gamma11=0.4, gamma21=1.0, gamma12=0.7, gamma22=1.3)


def coeffs(n=3, w=1.2, mu=0.9, delta=1.0, bp=BP):
    return build_liouvillian(*chain(n, w, mu, delta, bp))


def chain(n=3, w=1.2, mu=0.9, delta=1.0, bp=BP):
    return build_kitaev(KitaevParams(N=n, w=w, mu=mu, delta=delta)), end_baths(n, bp)


def test_eigenvalue_ordering_is_deterministic():
    spec = decompose(coeffs())
    z = spec.z
    assert np.all(np.diff(z.real) <= 1e-12)
    exact_ties = np.diff(z.real) == 0.0
    assert np.all(np.diff(z.imag)[exact_ties] >= 0)


def test_plus_set_size_and_positivity():
    """The stable set is the first 2N modes: exactly those have Re z > 0."""
    L = coeffs(n=4)
    spec = decompose(L)
    assert np.all(spec.z[: 2 * L.N].real > 0)
    assert np.all(spec.z[2 * L.N:].real < 0)


def test_spectrum_reconstructs_generator():
    Lmat = liouvillian_by_channel(*chain(n=2))
    z, Z, Zinv = reference_spectrum(Lmat)
    np.testing.assert_allclose(Z @ np.diag(z) @ Zinv, -4.0 * Lmat, atol=1e-10)


def test_rates_are_the_reference_spectrum():
    """+-eig(X) is the 4N mode matrix's spectrum as a multiset, with the stable half first."""
    H, chans = chain(n=4)
    z = decompose(build_liouvillian(H, chans)).z
    ref = reference_spectrum(liouvillian_by_channel(H, chans))[0]
    assert np.abs(z[:, None] - ref[None, :]).min(axis=1).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(ref[:, None] - z[None, :]).min(axis=1).max() <= 1e-12 * np.abs(ref).max()


def test_covariance_solves_the_lyapunov_equation():
    L = coeffs(n=4)
    G = decompose(L).gamma
    assert np.array_equal(G, -G.T)
    assert np.abs(L.X @ G + G @ L.X.T + L.Y).max() <= 1e-13 * np.abs(L.Y).max()


def test_projector_properties():
    Lmat = liouvillian_by_channel(*chain(n=3))
    _, Z, _ = reference_spectrum(Lmat)
    S = reference_projector(Lmat)
    assert np.abs(S @ S - S).max() < 1e-12
    assert np.trace(S).real == pytest.approx(6, abs=1e-10)
    # S acts as identity on the stable eigenvectors and kills the others
    plus, minus = Z[:, :6], Z[:, 6:]
    np.testing.assert_allclose(S @ plus, plus, atol=1e-12)
    assert np.abs(S @ minus).max() < 1e-12


def test_projector_block_is_the_reference_projector_in_the_pair_basis():
    """The reference projector reads [[I, -Q], [0, 0]] in the pair basis."""
    H, chans = chain(n=3)
    Q = gauge_phase(6) * stable_projector(decompose(build_liouvillian(H, chans)))
    T = pair_basis(3)
    blocks = np.linalg.solve(T, reference_projector(liouvillian_by_channel(H, chans)) @ T)
    expected = np.block([[np.eye(6), -Q], [np.zeros((6, 12))]])
    assert np.abs(blocks - expected).max() <= 1e-12
    assert np.array_equal(Q, -Q.T)


def test_degenerate_point_raises():
    """At w = delta, mu = 0 with gain-only end baths, both counts read off the rates +-eig(X)."""
    bp = EndBathParams(gamma21=1.0, gamma22=1.0)
    for n, counts in ((4, "6 stable modes (expected 8), 4 eigenvalues"),
                      (8, "6 stable modes (expected 16), 20 eigenvalues")):
        with pytest.raises(NonUniqueNess) as err:
            decompose(coeffs(n=n, w=1.0, mu=0.0, bp=bp))
        assert str(err.value) == f"stationary state may be non-unique: {counts} with |Re z| <= 1.000e-08"


def test_threshold_is_relative():
    # a huge eps_z swallows genuinely damped modes and must refuse, proving
    # the threshold scales with the spectrum rather than being absolute
    L = coeffs(n=2)
    decompose(L, eps_z=1e-8)
    with pytest.raises(NonUniqueNess):
        decompose(L, eps_z=0.99)


@pytest.mark.parametrize("w", [1e308, 1.7e308])
def test_overflowing_lyapunov_step_is_refused(w):
    """At N=2 the rates are -1 +/- i w, so two of them sum past the float range."""
    L = coeffs(n=2, w=w, mu=1.0, bp=EndBathParams(gamma21=1.0, gamma22=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonUniqueNess, match="Lyapunov step overflows"):
            decompose(L)


def test_lyapunov_step_near_the_float_limit_is_not_refused():
    L = coeffs(n=2, w=1e307, mu=1.0, bp=EndBathParams(gamma21=1.0, gamma22=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(decompose(L).gamma).all()


def test_singular_eigenbasis_guard():
    K = 1e10
    X = np.array([[-1.0, K], [0.0, -1.0]])
    fake = LiouvillianCoeffs(N=1, X=X, Y=np.zeros((2, 2)))
    with pytest.raises(SingularEigenbasis):
        decompose(fake)


def test_build_stack_rows():
    """The physical stack's rows are (1/2) [(I - Q) | i (I + Q)], Q = i^(j+k+1) Q'."""
    Qp = stable_projector(decompose(coeffs(n=2)))
    stack = build_stack(Qp, 2)
    Q = gauge_phase(4) * Qp
    assert stack.R.shape == (4, 8)
    np.testing.assert_array_equal(stack.R[1, 0::2], (np.eye(4)[1] - Q[1]) / 2.0)
    np.testing.assert_array_equal(stack.R[1, 1::2], 0.5j * (np.eye(4)[1] + Q[1]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_stable_projector_is_the_pair_basis_block(n):
    """The physical stack read off Q' = stable_projector(...) is, to the byte, the one built from
    the pair basis's block D (i Gamma P) D^-1, with D = diag(1, -i, 1, -i, ...) and
    P = diag(1, -1, 1, -1, ...)."""
    d, p = np.tile([1.0, -1j], n), np.tile([1.0, -1.0], n)
    eye = np.eye(2 * n)
    gain = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)
    for bp in (_FIG1_BATHS, gain):
        for w, mu in ((0.5, 2.2), (1.5, 0.2), (0.9, 1.0)):
            spectrum = decompose(coeffs(n, w, mu, bp=bp))
            Q = d[:, None] * (1j * spectrum.gamma * p) / d
            expected = np.dstack(((eye - Q) / 2.0, 0.5j * (eye + Q))).reshape(2 * n, 4 * n)
            assert build_stack(stable_projector(spectrum), n).R.tobytes() == expected.tobytes()


def seeded_point(n, seed):
    """A chain of n sites with (w, mu) and the four end rates drawn from seed."""
    w, mu, *rates = np.random.default_rng(seed).uniform([-2, -3, 0.2, 0.2, 0.2, 0.2], [2, 3, 3, 3, 3, 3])
    return KitaevParams(N=n, w=w, mu=mu, delta=1.0), EndBathParams(*rates)


FIG1_GRID = [(params, _FIG1_BATHS) for params in _FIG1_PARAMS]
SEEDS = [(1, 0), (2, 1), (4, 2), (6, 3), (8, 4), (12, 5), (16, 6), (16, 7)]


@pytest.mark.parametrize("params, bp", FIG1_GRID + [seeded_point(n, seed) for n, seed in SEEDS],
                         ids=[f"fig1-{i}" for i in range(len(FIG1_GRID))] + [f"n{n}-seed{seed}" for n, seed in SEEDS])
def test_stack_matches_the_4n_reference(params, bp):
    """The stack read off the covariance is the 4N eigendecomposition's, entry by entry, and its
    projector block is exactly antisymmetric, so the isotropy residual read off Q' is 0.0 where
    the dense max |R R^T| is roundoff."""
    H, chans = build_kitaev(params), end_baths(params.N, bp)
    Q = stable_projector(decompose(build_liouvillian(H, chans)))
    assert np.array_equal(Q, -Q.T)
    stack = build_stack(Q, params.N)
    assert np.abs(stack.R - reference_stack(H, chans)).max() <= 1e-11
    assert orthogonality_residual(stack) == 0.0
    assert np.abs(stack.R @ stack.R.T).max() <= 1e-16


def test_build_stack_shape_validation():
    with pytest.raises(ValueError):
        build_stack(np.zeros((6, 6)), 2)
    with pytest.raises(ValueError):
        TransferStack(N=2, Qp=np.zeros((4, 6)))


def test_transfer_stack_refuses_a_block_it_cannot_hold():
    """Q' is stored as float64, so a complex block is refused by name rather than cast with a
    ComplexWarning, and a mis-shaped or non-finite one is refused before any stack is built;
    a real square finite block is held read-only."""
    Qp = np.array([[0.0, 0.5], [-0.5, 0.0]])
    for bad, problem in ((Qp + 0j, "must be real, got complex128"), (np.zeros((2, 3)), r"must be 2x2, got \(2, 3\)"),
                         (np.array([[0.0, np.nan], [0.5, 0.0]]), "must be finite, got nan"),
                         (np.array([[0.0, 0.5], [-np.inf, 0.0]]), "must be finite, got -inf"),
                         (np.array([[np.inf, 0.5], [-0.5, 0.0]]), "must be finite, got inf")):
        with pytest.raises(ValueError, match=f"Q' {problem}"):
            TransferStack(N=1, Qp=bad)
    with pytest.raises(ValueError, match="Q' must be finite, got nan"):
        build_stack(np.full((4, 4), np.nan), 2)
    stack = TransferStack(N=1, Qp=Qp.tolist())
    assert stack.Qp.dtype == np.float64
    with pytest.raises(ValueError):
        stack.Qp[0, 1] = 1.0


def test_orthogonality_residual_on_genuine_stack():
    L = coeffs(n=3)
    stack = build_stack(stable_projector(decompose(L)), 3)
    assert orthogonality_residual(stack) == 0.0


def test_orthogonality_residual_counts_diagonal():
    # Q' = I gives Q = diag(i, -i), and R R^T = -(Q + Q^T)/2 puts it all on the diagonal
    stack = TransferStack(N=1, Qp=np.eye(2))
    assert orthogonality_residual(stack) == pytest.approx(1.0)
    # on a block with no symmetry, read off Q' alone, it is the dense max |R R^T|
    for n in (1, 4, 16):
        block = TransferStack(N=n, Qp=np.random.default_rng(n).standard_normal((2 * n, 2 * n)))
        dense = np.abs(block.R @ block.R.T).max()
        assert abs(orthogonality_residual(block) - dense) <= 1e-15 * dense


def test_a_solve_never_builds_the_physical_stack(monkeypatch):
    """After decompose a solve builds no complex array: the isotropy check and the fold read Q'
    and its real view W, never R."""
    def refuse(stack):
        raise AssertionError("a solve read TransferStack.R")

    monkeypatch.setattr(TransferStack, "R", property(refuse))
    sol = solve_end_bath(KitaevParams(N=6, w=0.5, mu=2.0, delta=1.0), BP)
    assert sol.orthoResidual == 0.0 and sol.report is not None


LONGER = [(KitaevParams(N=n, w=1.2, mu=0.9, delta=1.0), BP) for n in (4, 5)]


@pytest.mark.parametrize("params, bp", FIG1_GRID + LONGER,
                         ids=[f"fig1-{i}" for i in range(len(FIG1_GRID))] + ["n4", "n5"])
def test_gaussian_report_matches_the_dense_kernel(params, bp):
    """The covariance readout's index conventions, against the dense kernel's vector, with the
    covariance taken from scipy's Lyapunov solve rather than decompose's."""
    H, chans = build_kitaev(params), end_baths(params.N, bp)
    L = build_liouvillian(H, chans)
    gamma = scipy.linalg.solve_continuous_lyapunov(L.X, -L.Y)
    eec, occupancy = gaussian_report(gamma)
    vec = dense_second_space_ness(H, chans).vec
    assert abs(eec - eec_from_vec(vec, params.N)) <= 1e-10
    ref = [occupancy_from_vec(vec, params.N, j) for j in range(1, params.N + 1)]
    np.testing.assert_allclose(occupancy, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("gamma2", [0.5, 1.0, 2.5, 4.0])
def test_gaussian_report_on_a_lone_site(gamma2):
    """No end-to-end correlation, and the occupancy (1 + r)/2, r = (gamma2 - gamma1)/(gamma2 + gamma1)."""
    H, chans = chain(n=1, w=0.0, mu=1.0, delta=0.0, bp=EndBathParams(1.0, gamma2, 0.0, 0.0))
    eec, occupancy = gaussian_report(decompose(build_liouvillian(H, chans)).gamma)
    r = (gamma2 - 1.0) / (gamma2 + 1.0)
    assert eec == 0.0
    np.testing.assert_allclose(occupancy, [(1.0 + r) / 2.0], rtol=0, atol=1e-15)


def test_gaussian_report_equals_the_replay_readout():
    """An uncapped N=8 solve reads the same observables off its replay as off its covariance."""
    sol = solve_end_bath(KitaevParams(N=8, w=0.5, mu=2.0, delta=1.0), EndBathParams(0.0, 1.0, 0.0, 1.0))
    eec, occupancy = gaussian_report(sol.spectrum.gamma)
    assert abs(eec - sol.report.eec) <= 1e-12
    np.testing.assert_allclose(occupancy, sol.report.occupancy, rtol=0, atol=1e-12)
