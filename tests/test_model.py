"""Hamiltonian assembly and bath channel construction."""

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


def test_kitaev_matrix_entries_n2():
    H = build_kitaev(KitaevParams(N=2, w=1.5, mu=0.7, delta=2.0))
    A = H.A
    expected = np.zeros((4, 4))
    expected[0, 1] = -0.7          # on-site, site 1
    expected[2, 3] = -0.7          # on-site, site 2
    expected[0, 3] = 2.0 - 1.5     # |delta| - w
    expected[2, 1] = -(2.0 + 1.5)  # -(|delta| + w)
    np.testing.assert_allclose(A, expected)


def test_kitaev_pairing_enters_by_magnitude():
    plus = build_kitaev(KitaevParams(N=3, w=1.0, mu=0.5, delta=1.3))
    minus = build_kitaev(KitaevParams(N=3, w=1.0, mu=0.5, delta=-1.3))
    np.testing.assert_array_equal(plus.A, minus.A)


def test_kitaev_support_is_odd_row_even_column():
    A = build_kitaev(KitaevParams(N=4, w=1.1, mu=0.3, delta=0.9)).A
    mask = np.zeros_like(A, dtype=bool)
    mask[0::2, 1::2] = True
    assert np.all(A[~mask] == 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=0, w=1.0, mu=1.0, delta=1.0),
        dict(N=-3, w=1.0, mu=1.0, delta=1.0),
        dict(N=2.5, w=1.0, mu=1.0, delta=1.0),
        dict(N=2, w=np.inf, mu=1.0, delta=1.0),
        dict(N=2, w=1.0, mu=np.nan, delta=1.0),
        dict(N=2, w=1.0, mu=1.0, delta=1.0 + 2.0j),
        # booleans and strings are no numbers, as the CLI and check_settings hold too
        dict(N=True, w=1.0, mu=1.0, delta=1.0),
        dict(N=2, w=True, mu=1.0, delta=1.0),
        dict(N=2, w=1.0, mu="1.5", delta=1.0),
        dict(N=2, w=1.0, mu=1.0, delta=np.True_),
    ],
)
def test_kitaev_params_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        KitaevParams(**kwargs)


def test_majorana_hamiltonian_rejects_wrong_support():
    A = np.zeros((4, 4))
    A[1, 2] = 1.0  # (even row, odd column) slot
    with pytest.raises(ValueError):
        MajoranaHamiltonian(N=2, A=A)


def test_majorana_hamiltonian_rejects_wrong_shape():
    with pytest.raises(ValueError):
        MajoranaHamiltonian(N=2, A=np.zeros((3, 4)))


def test_majorana_hamiltonian_rejects_non_finite_entry():
    A = np.zeros((4, 4))
    A[0, 1] = np.nan  # an allowed (odd row, even column) slot
    with pytest.raises(ValueError, match="finite"):
        MajoranaHamiltonian(N=2, A=A)


def test_bath_channel_rejects_complex_and_odd_length():
    with pytest.raises(ValueError):
        BathChannel(B=np.array([1.0 + 1j, 0.0]))
    with pytest.raises(ValueError):
        BathChannel(B=np.array([1.0, 0.0, 0.5]))
    with pytest.raises(ValueError):
        BathChannel(B=np.array([1.0, np.inf]))


def test_single_site_bath_amplitudes():
    g = 4.0  # sqrt(g)/2 = 1 keeps the expected entries integral
    ann = single_site_bath(3, 2, "annihilation", g)
    cre = single_site_bath(3, 2, "creation", g)
    np.testing.assert_allclose(ann.B, [0, 0, 1.0, 1.0, 0, 0])
    np.testing.assert_allclose(cre.B, [0, 0, 1.0, -1.0, 0, 0])
    assert ann.N == 3


def test_single_site_bath_validation():
    with pytest.raises(ValueError):
        single_site_bath(3, 4, "annihilation", 1.0)
    with pytest.raises(ValueError):
        single_site_bath(3, 1, "dephasing", 1.0)
    with pytest.raises(ValueError):
        single_site_bath(3, 1, "creation", -0.5)


def test_end_baths_order_and_zero_omission():
    p = EndBathParams(gamma11=1.0, gamma21=0.0, gamma12=2.0, gamma22=3.0)
    chans = end_baths(4, p)
    assert len(chans) == 3
    # site 1 annihilation, then site N annihilation, then site N creation
    assert chans[0].B[0] == pytest.approx(0.5)
    assert chans[0].B[1] == pytest.approx(0.5)
    assert chans[1].B[6] == pytest.approx(np.sqrt(2.0) / 2)
    assert chans[1].B[7] == pytest.approx(np.sqrt(2.0) / 2)
    assert chans[2].B[6] == pytest.approx(np.sqrt(3.0) / 2)
    assert chans[2].B[7] == pytest.approx(-np.sqrt(3.0) / 2)


def test_end_baths_all_zero_gives_empty_list():
    assert end_baths(2, EndBathParams()) == []


def test_end_baths_rejects_empty_chain():
    with pytest.raises(ValueError, match="chain length"):
        end_baths(0, EndBathParams(gamma11=1.0))


def test_end_bath_params_rejects_negative_rate():
    with pytest.raises(ValueError):
        EndBathParams(gamma11=-0.1)


@pytest.mark.parametrize("rates", [dict(gamma21=True), dict(gamma22="2"), dict(gamma11=None)])
def test_end_bath_params_rejects_a_rate_that_is_no_number(rates):
    with pytest.raises(ValueError):
        EndBathParams(**rates)


def test_params_take_numpy_scalars():
    p = KitaevParams(N=np.int64(3), w=np.float32(0.5), mu=np.float64(1.5), delta=np.int32(1))
    assert (p.N, p.w, p.mu, p.delta) == (3, 0.5, 1.5, 1.0)
    assert EndBathParams(gamma21=np.float64(2.0)).gamma21 == 2.0


def test_params_are_frozen():
    p = KitaevParams(N=2, w=1.0, mu=1.0, delta=1.0)
    with pytest.raises(AttributeError):
        p.w = 2.0
    H = build_kitaev(p)
    with pytest.raises(ValueError):
        H.A[0, 1] = 5.0
