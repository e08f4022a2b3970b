"""Observable extraction and its validation guards."""

import numpy as np
import pytest

from nessfold.exceptions import UnphysicalReadout
from nessfold.model import EndBathParams, KitaevParams
from nessfold.observables import (
    ObservableReport,
    build_report,
    end_to_end_correlation,
    log_linear_fit,
    occupancy_profile,
    site_occupancy,
)
from nessfold.pipeline import solve_end_bath
from nessfold.tns import normalize_vacuum, product_state

from helpers import apply_gate, majorana_pair_expectation


def solved_state(n=2, w=1.0, mu=1.0, g1=1.0, g2=3.0):
    bp = EndBathParams(gamma11=g1, gamma21=g2, gamma12=g1, gamma22=g2)
    return solve_end_bath(KitaevParams(N=n, w=w, mu=mu, delta=1.0), bp)


def test_single_site_occupancy_closed_form():
    # lone site, absorb rate 1 / inject rate 3: <n> = (1 + (3-1)/(3+1)) / 2
    bp = EndBathParams(gamma11=1.0, gamma21=3.0)
    sol = solve_end_bath(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp)
    assert sol.report.occupancy[0] == pytest.approx(0.75, abs=1e-12)


def test_pair_expectation_requires_normalization():
    state = product_state([0, 0])
    with pytest.raises(ValueError, match="normalized"):
        majorana_pair_expectation(state, 1, 2)


def test_pair_expectation_parity_and_range_checks():
    state = product_state([0, 0, 0, 0])
    normalize_vacuum(state)
    with pytest.raises(ValueError):
        majorana_pair_expectation(state, 2, 4)  # even first index
    with pytest.raises(ValueError):
        majorana_pair_expectation(state, 1, 3)  # odd second index
    with pytest.raises(ValueError):
        majorana_pair_expectation(state, 1, 6)  # out of range


def test_eec_needs_two_physical_sites():
    state = product_state([0, 0])
    normalize_vacuum(state)
    with pytest.raises(ValueError):
        end_to_end_correlation(state)


def test_eec_reads_advertised_patterns():
    sol = solved_state(n=3)
    state = sol.state
    from nessfold.tns import coefficient

    inner = coefficient(state, [0, 1, 0, 0, 1, 0])
    outer = coefficient(state, [1, 0, 0, 0, 0, 1])
    expected = 2.0 * abs(state.z0 * (inner + outer))
    assert sol.report.eec == pytest.approx(expected, rel=1e-12)


def test_occupancy_bounds_and_profile():
    sol = solved_state(n=3)
    occ = occupancy_profile(sol.state)
    assert occ.shape == (3,)
    assert np.all(occ >= -1e-8) and np.all(occ <= 1 + 1e-8)
    np.testing.assert_allclose(occ, sol.report.occupancy)
    # site j reads the Majorana pair (2j-1, 2j)
    pairs = [majorana_pair_expectation(sol.state, 2 * j - 1, 2 * j) for j in (1, 2, 3)]
    np.testing.assert_allclose(occ, [(1 + v.real) / 2 for v in pairs], rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        site_occupancy(sol.state, 4)


def test_occupancy_rejects_complex_leakage():
    state = product_state([0, 0])
    apply_gate(state, 3, 2 * np.arctan(1e-5))  # |00) + 1e-5j |11) after normalization
    normalize_vacuum(state)
    with pytest.raises(UnphysicalReadout, match="imaginary"):
        site_occupancy(state, 1)
    # truncated runs widen the tolerance with the discarded weight
    state.discardedWeight = 1e-10
    assert site_occupancy(state, 1) == pytest.approx(0.5, abs=1e-4)


def test_report_validation():
    with pytest.raises(ValueError):
        ObservableReport(eec=-0.1, occupancy=np.array([0.5]), maxBond=1)
    # the lone site of test_single_site_occupancy_closed_form has z0 c_1 = 0.5; a vacuum scale
    # off by +-4 reads occupancy 1.5 or -0.5
    bp = EndBathParams(gamma11=1.0, gamma21=3.0)
    state = solve_end_bath(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp).state
    z0 = state.z0
    for scale in (4.0, -4.0):
        state.z0 = scale * z0
        with pytest.raises(UnphysicalReadout, match="outside"):
            site_occupancy(state, 1)


def test_capped_readout_outside_unit_range_is_refused():
    # a chi=2 cap leaves this state with occupancies up to 1.14
    with pytest.raises(UnphysicalReadout):
        solve_end_bath(KitaevParams(N=6, w=1.0, mu=3.0, delta=1.0),
                       EndBathParams(gamma21=1.0, gamma22=1.0), max_chi=2)


def test_build_report_single_site_has_zero_eec():
    bp = EndBathParams(gamma11=1.0, gamma21=2.0)
    sol = solve_end_bath(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp)
    assert sol.report.eec == 0.0
    assert sol.report.maxBond >= 1
    assert sol.state.z0 != 0


def test_log_linear_fit_recovers_exact_decay():
    x = np.array([4.0, 6.0, 8.0, 10.0])
    y = 3.0 * np.exp(-0.7 * x)
    slope, intercept, residual = log_linear_fit(x, y)
    assert slope == pytest.approx(-0.7, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-10)
    assert residual == pytest.approx(0.0, abs=1e-7)


def test_log_linear_fit_of_a_flat_series_has_no_residual():
    _, intercept, residual = log_linear_fit([4, 6, 8, 10], [0.3] * 4)
    assert intercept == pytest.approx(np.log(0.3), abs=1e-12)
    assert residual == 0.0


def test_log_linear_fit_validation():
    with pytest.raises(ValueError):
        log_linear_fit([1, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        log_linear_fit([1, 2, 3], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        log_linear_fit([1, 2, 3], [1.0, 2.0])
