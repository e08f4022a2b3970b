"""Quadratic generator coefficients: placements, antisymmetry, scalar bookkeeping."""

import numpy as np
import pytest

from nessfold.liouvillian import build_liouvillian, scalar_eigenvalue
from nessfold.model import (
    BathChannel,
    EndBathParams,
    KitaevParams,
    build_kitaev,
    end_baths,
    single_site_bath,
)

from helpers import liouvillian_by_channel


def test_single_channel_hand_value():
    """One annihilation channel at gamma=4 on a dead site pins every family placement."""
    H = build_kitaev(KitaevParams(N=1, w=0.0, mu=0.0, delta=0.0))
    L = build_liouvillian(H, [single_site_bath(1, 1, "annihilation", 4.0)])
    expected = np.array(
        [
            [0, -1j, -1, 1j],
            [1j, 0, 1j, 1],
            [1, -1j, 0, -1j],
            [-1j, -1, 1j, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(L.Lmat, expected, atol=1e-15)
    assert L.Lscalar == pytest.approx(-8.0)


def test_unitary_part_placement():
    """mu alone lands at the two advertised slots with weight mu/4 after antisymmetry."""
    H = build_kitaev(KitaevParams(N=1, w=0.0, mu=2.0, delta=0.0))
    L = build_liouvillian(H, [])
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 0] = -0.5   # A[1][2]/2 antisymmetrized: -mu/4
    expected[0, 3] = 0.5
    expected[1, 2] = -0.5
    expected[2, 1] = 0.5
    np.testing.assert_allclose(L.Lmat, expected, atol=1e-15)
    assert L.Lscalar == 0.0


def test_antisymmetry_and_zero_diagonal():
    params = KitaevParams(N=3, w=1.3, mu=0.8, delta=0.6)
    bp = EndBathParams(gamma11=0.4, gamma21=1.1, gamma12=0.9, gamma22=2.3)
    L = build_liouvillian(build_kitaev(params), end_baths(3, bp))
    assert np.abs(L.Lmat + L.Lmat.T).max() == 0.0
    assert np.abs(np.diag(L.Lmat)).max() == 0.0


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
    L = build_liouvillian(build_kitaev(params), [])
    assert L.Lscalar == 0.0
    assert np.abs(np.imag(L.Lmat)).max() == 0.0


def test_coeffs_shape_validation():
    from nessfold.liouvillian import LiouvillianCoeffs

    with pytest.raises(ValueError):
        LiouvillianCoeffs(N=2, Lmat=np.zeros((4, 4)), Lscalar=0.0)
    with pytest.raises(ValueError):
        LiouvillianCoeffs(N=2, Lmat=np.zeros((8, 4)), Lscalar=0.0)


def test_one_product_per_family_matches_the_per_channel_sum():
    """Six channels: both kinds on each end site, one of them repeated, and one in the bulk."""
    n = 4
    H = build_kitaev(KitaevParams(N=n, w=1.3, mu=0.8, delta=0.6))
    chans = [single_site_bath(n, 1, "annihilation", 1.3), single_site_bath(n, 1, "creation", 2.2),
             single_site_bath(n, n, "annihilation", 3.4), single_site_bath(n, n, "creation", 4.1),
             single_site_bath(n, 1, "creation", 2.2), single_site_bath(n, 2, "annihilation", 0.7)]
    np.testing.assert_allclose(build_liouvillian(H, chans).Lmat, liouvillian_by_channel(H, chans),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_gain_only_end_channels_match_the_per_channel_sum_exactly(n):
    """Two channels' terms add the same in either grouping, and from N = 2 on the two gain
    channels share no entry at all, so the sums are exact; no channel at all adds nothing."""
    H = build_kitaev(KitaevParams(N=n, w=0.5, mu=2.0, delta=1.0))
    for chans in (end_baths(n, EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)), []):
        assert np.array_equal(build_liouvillian(H, chans).Lmat, liouvillian_by_channel(H, chans))
