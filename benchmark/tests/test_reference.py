"""Pins of the Lyapunov reference's sign and index conventions.

The reference is independent of the timed stages, so these pins are the only
thing tying its conventions to the pipeline's: against the dense first-space
density matrix (N <= 3), the dense second-space kernel (N <= 5), and the
transfer-stack readout X = -a^-1 b at sizes no dense oracle reaches.
"""

import numpy as np
import pytest

from nessfold import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.oracle import (
    dense_first_space_ness,
    dense_second_space_ness,
    eec_from_vec,
    majorana_site_matrices,
    occupancy_from_vec,
)

from harness import transfer_stack
from reference import (
    UnstableReference,
    covariance,
    eec_error,
    occ_error,
    reference_observables,
    stability_margin,
    stack_readout,
)
from workloads import FIG1_BATHS, GAIN_BATHS

POINTS = [
    (0.7, 1.3, FIG1_BATHS),
    (0.5, 2.0, GAIN_BATHS),
    (1.5, 0.5, EndBathParams(gamma11=0.4, gamma22=1.7)),
]


def dense_covariance(rho: np.ndarray, N: int) -> np.ndarray:
    g = majorana_site_matrices(N)
    G = np.array([[(1j * np.trace(rho @ a @ b)).real for b in g] for a in g])
    np.fill_diagonal(G, 0.0)
    return G


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("w, mu, baths", POINTS)
def test_covariance_matches_dense_first_space(N, w, mu, baths):
    params = KitaevParams(N=N, w=w, mu=mu, delta=1.0)
    channels = end_baths(N, baths)
    rho = dense_first_space_ness(params, channels).rho
    G = covariance(build_kitaev(params).A, channels)
    assert np.abs(G - dense_covariance(rho, N)).max() < 1e-10


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("w, mu, baths", POINTS)
def test_observables_match_dense_second_space(N, w, mu, baths):
    params = KitaevParams(N=N, w=w, mu=mu, delta=1.0)
    channels = end_baths(N, baths)
    vec = dense_second_space_ness(build_kitaev(params), channels).vec
    eec, occ = reference_observables(build_kitaev(params).A, channels)
    assert eec_error(eec_from_vec(vec, N), eec) < 1e-10
    assert occ_error([occupancy_from_vec(vec, N, j) for j in range(1, N + 1)], occ) < 1e-10


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("w, mu, baths", POINTS)
def test_stack_readout_matches_reference(N, w, mu, baths):
    params = KitaevParams(N=N, w=w, mu=mu, delta=1.0)
    stack = transfer_stack(params, baths)
    eec, occ = stack_readout(stack.R)
    ref_eec, ref_occ = reference_observables(build_kitaev(params).A, end_baths(N, baths))
    assert eec_error(eec, ref_eec) < 1e-9
    assert occ_error(occ, ref_occ) < 1e-9


def test_degenerate_line_has_no_reference():
    # mu = 0, w = delta: the end Majoranas decouple from the baths and never decay
    A = build_kitaev(KitaevParams(N=4, w=1.0, mu=0.0, delta=1.0)).A
    channels = end_baths(4, GAIN_BATHS)
    assert stability_margin(A, channels) < 1e-12
    with pytest.raises(UnstableReference):
        covariance(A, channels)
