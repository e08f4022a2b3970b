"""Covariance drift and source, and the 4N second-space reference they stand for: placements,
antisymmetry, scalar bookkeeping, and the pair-basis blocks that tie the two together."""

import numpy as np
import pytest

from nessfold.model import (
    BathChannel,
    EndBathParams,
    KitaevParams,
    MajoranaHamiltonian,
    build_kitaev,
    end_baths,
    single_site_bath,
)
from nessfold.spectral import LiouvillianCoeffs, build_liouvillian

from helpers import liouvillian_by_channel, pair_basis, scalar_eigenvalue


def test_single_channel_hand_value():
    """One annihilation channel at gamma=4 on a dead site pins every family placement."""
    H = build_kitaev(KitaevParams(N=1, w=0.0, mu=0.0, delta=0.0))
    chans = [single_site_bath(1, 1, "annihilation", 4.0)]
    expected = np.array(
        [
            [0, -1j, -1, 1j],
            [1j, 0, 1j, 1],
            [1, -1j, 0, -1j],
            [-1j, -1, 1j, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(liouvillian_by_channel(H, chans), expected, atol=1e-15)
    assert scalar_eigenvalue(chans) == pytest.approx(-8.0)


def test_single_channel_drift_and_source_hand_value():
    """The same channel has l = (1, i), so M = [[1, -i], [i, 1]]: X = -4 I and Y = 8 Im M,
    whose stationary covariance Y/8 is the vacuum's, Gamma[1][2] = -1."""
    H = build_kitaev(KitaevParams(N=1, w=0.0, mu=0.0, delta=0.0))
    L = build_liouvillian(H, [single_site_bath(1, 1, "annihilation", 4.0)])
    np.testing.assert_array_equal(L.X, -4.0 * np.eye(2))
    np.testing.assert_array_equal(L.Y, [[0.0, -8.0], [8.0, 0.0]])


def test_unitary_part_placement():
    """mu alone lands at the two advertised slots with weight mu/4 after antisymmetry."""
    H = build_kitaev(KitaevParams(N=1, w=0.0, mu=2.0, delta=0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 0] = -0.5   # A[1][2]/2 antisymmetrized: -mu/4
    expected[0, 3] = 0.5
    expected[1, 2] = -0.5
    expected[2, 1] = 0.5
    np.testing.assert_allclose(liouvillian_by_channel(H, []), expected, atol=1e-15)
    assert scalar_eigenvalue([]) == 0.0
    L = build_liouvillian(H, [])
    np.testing.assert_array_equal(L.X, [[0.0, -2.0], [2.0, 0.0]])  # A - A^T
    assert not L.Y.any()


def test_antisymmetry_and_zero_diagonal():
    params = KitaevParams(N=3, w=1.3, mu=0.8, delta=0.6)
    bp = EndBathParams(gamma11=0.4, gamma21=1.1, gamma12=0.9, gamma22=2.3)
    H, chans = build_kitaev(params), end_baths(3, bp)
    Lmat = liouvillian_by_channel(H, chans)
    assert np.abs(Lmat + Lmat.T).max() == 0.0
    assert np.abs(np.diag(Lmat)).max() == 0.0
    Y = build_liouvillian(H, chans).Y
    assert np.abs(Y + Y.T).max() == 0.0


def test_scalar_eigenvalue_matches_channel_norms():
    chans = [
        single_site_bath(2, 1, "annihilation", 1.5),
        single_site_bath(2, 2, "creation", 2.5),
    ]
    # each channel has |B|^2 = gamma/2
    assert scalar_eigenvalue(chans) == pytest.approx(-4.0 * (1.5 / 2 + 2.5 / 2))


def test_bath_size_mismatch_rejected():
    H = build_kitaev(KitaevParams(N=2, w=1.0, mu=1.0, delta=1.0))
    with pytest.raises(ValueError):
        build_liouvillian(H, [BathChannel(B=np.array([0.5, 0.5]))])


def test_no_baths_means_no_dissipative_terms():
    params = KitaevParams(N=2, w=1.0, mu=1.0, delta=1.0)
    H = build_kitaev(params)
    assert np.abs(np.imag(liouvillian_by_channel(H, []))).max() == 0.0
    L = build_liouvillian(H, [])
    np.testing.assert_array_equal(L.X, H.A - H.A.T)
    assert not L.Y.any()


def test_coeffs_shape_validation():
    with pytest.raises(ValueError):
        LiouvillianCoeffs(N=2, X=np.zeros((2, 2)), Y=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        LiouvillianCoeffs(N=2, X=np.zeros((4, 4)), Y=np.zeros((4, 2)))


def random_chain(rng, n, channels):
    """A random Hamiltonian on the allowed (odd row, even column) positions and random channels."""
    A = np.zeros((2 * n, 2 * n))
    A[0::2, 1::2] = rng.normal(size=(n, n))
    return MajoranaHamiltonian(N=n, A=A), [BathChannel(B=rng.normal(size=2 * n)) for _ in range(channels)]


@pytest.mark.parametrize("n, channels", [(1, 3), (2, 3), (3, 3), (4, 0), (4, 6)])
def test_reference_generator_is_block_triangular_over_the_drift_and_source(n, channels):
    """In the pair basis the 4N mode matrix -4 Lmat has blocks D(-X)D^-1 and -Y over D X D^-1,
    D = diag(1, -i, 1, -i, ...), for the X and Y that build_liouvillian forms from the same
    Hamiltonian and channels."""
    H, chans = random_chain(np.random.default_rng(10 * n + channels), n, channels)
    L = build_liouvillian(H, chans)
    T = pair_basis(n)
    blocks = np.linalg.solve(T, -4.0 * liouvillian_by_channel(H, chans) @ T)
    d = np.tile([1.0, -1j], n)
    dXd = d[:, None] * L.X / d
    m = 2 * n
    scale = max(1.0, float(np.abs(blocks).max()))
    for got, expected in ((blocks[:m, :m], -dXd), (blocks[:m, m:], -L.Y),
                          (blocks[m:, :m], np.zeros((m, m))), (blocks[m:, m:], dXd)):
        assert np.abs(got - expected).max() <= 1e-14 * scale
