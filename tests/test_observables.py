"""Observable extraction and its validation guards."""

import numpy as np
import pytest

from nessfold.cli import _FIG1_BATHS, _FIG1_PARAMS
from nessfold.exceptions import UnphysicalReadout
from nessfold.model import EndBathParams, KitaevParams
from nessfold.pipeline import log_linear_fit, solve_end_bath
from nessfold.spectral import gauge_signs, gaussian_report, stable_projector
from nessfold.tns import ObservableReport, build_report, covariance, normalize_vacuum, product_state

from helpers import apply_gate, coefficient, majorana_pair_expectation


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


def test_eec_reads_advertised_patterns():
    sol = solved_state(n=3)
    state = sol.state
    inner = coefficient(state, [0, 1, 0, 0, 1, 0])
    outer = coefficient(state, [1, 0, 0, 0, 0, 1])
    expected = 2.0 * abs(state.z0 * (inner + outer))
    assert sol.report.eec == pytest.approx(expected, rel=1e-12)


def test_occupancy_bounds_and_profile():
    sol = solved_state(n=3)
    occ = build_report(sol.state).occupancy
    assert occ.shape == (3,)
    assert np.all(occ >= -1e-8) and np.all(occ <= 1 + 1e-8)
    np.testing.assert_allclose(occ, sol.report.occupancy)
    # site j reads the Majorana pair (2j-1, 2j)
    pairs = [majorana_pair_expectation(sol.state, 2 * j - 1, 2 * j) for j in (1, 2, 3)]
    np.testing.assert_allclose(occ, [(1 + v.real) / 2 for v in pairs], rtol=0, atol=1e-15)


def test_readout_refuses_a_complex_state():
    """The readout sweeps in float64, in the replay's real gauge, so a state with complex site
    matrices is refused by name rather than read."""
    state = product_state([0, 0])
    apply_gate(state, 3, 2 * np.arctan(1e-5))  # |00) + 1e-5j |11) after normalization
    normalize_vacuum(state)
    for read in (covariance, build_report):
        with pytest.raises(ValueError, match=r"real-gauge states only; sites \[1, 2\] are complex"):
            read(state)


def test_report_validation():
    with pytest.raises(ValueError):
        ObservableReport(eec=-0.1, occupancy=np.array([0.5]), maxBond=1)
    with pytest.raises(ValueError, match="normalized"):
        build_report(product_state([0, 0]))
    # the lone site of test_single_site_occupancy_closed_form has z0 c_1 = 0.5; a vacuum scale
    # off by +-4 reads occupancy 1.5 or -0.5
    bp = EndBathParams(gamma11=1.0, gamma21=3.0)
    state = solve_end_bath(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp).state
    z0 = state.z0
    for scale in (4.0, -4.0):
        state.z0 = scale * z0
        with pytest.raises(UnphysicalReadout, match="outside"):
            build_report(state)


def test_capped_readout_outside_unit_range_is_refused():
    # a chi=2 cap leaves this state with an occupancy of 1.08
    with pytest.raises(UnphysicalReadout):
        solve_end_bath(KitaevParams(N=6, w=1.5, mu=3.0, delta=1.0),
                       EndBathParams(gamma21=1.0, gamma22=1.0), max_chi=2)


def test_build_report_single_site_has_zero_eec():
    bp = EndBathParams(gamma11=1.0, gamma21=2.0)
    sol = solve_end_bath(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp)
    assert sol.report.eec == 0.0
    assert sol.report.maxBond >= 1
    assert sol.state.z0 != 0


GAIN = EndBathParams(gamma21=1.0, gamma22=1.0)


@pytest.mark.parametrize("n, w, mu, chi", [(3, 0.5, 2.0, 0), (4, 0.5, 2.0, 0), (4, 0.5, 2.0, 4), (4, 1.5, 0.2, 2)])
def test_covariance_reads_every_two_mode_amplitude(n, w, mu, chi):
    """z0 c_ab = s_a s_b Gamma_ab for every pair a < b, capped states included, with one sign
    per Majorana, s = (+1, -1, -1, +1) repeating."""
    state = solve_end_bath(KitaevParams(N=n, w=w, mu=mu, delta=1.0), GAIN, max_chi=chi).state
    gamma, s = covariance(state), gauge_signs(2 * n)
    assert gamma.dtype == np.float64
    np.testing.assert_array_equal(gamma, -gamma.T)
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            bits = [int(k in (a, b)) for k in range(2 * n)]
            assert abs(state.z0 * coefficient(state, bits) - s[a] * s[b] * gamma[a, b]) <= 1e-15, (a, b)


UNCAPPED_POINTS = ([(p, _FIG1_BATHS) for p in _FIG1_PARAMS]
                   + [(KitaevParams(N=8, w=0.5, mu=2.0, delta=1.0), GAIN)])


@pytest.mark.parametrize("params, bp", UNCAPPED_POINTS)
def test_uncapped_covariance_equals_the_solves(params, bp):
    sol = solve_end_bath(params, bp)
    assert np.abs(covariance(sol.state) - sol.spectrum.gamma).max() <= 1e-12


@pytest.mark.parametrize("params, bp", UNCAPPED_POINTS)
def test_uncapped_amplitudes_are_the_folds_gauged_projector(params, bp):
    """The replay ends in the fold's real gauge, so each two-mode amplitude of an uncapped solve,
    taken against the vacuum one, is the entry of the fold's own input Q' (a < b, 0-based)."""
    sol = solve_end_bath(params, bp)
    Qp = stable_projector(sol.spectrum)
    n2 = 2 * params.N
    for a in range(n2):
        for b in range(a + 1, n2):
            bits = [int(k in (a, b)) for k in range(n2)]
            assert abs(sol.state.z0 * coefficient(sol.state, bits) - Qp[a, b]) <= 1e-12, (a, b)


def test_capped_covariance_error_exceeds_the_eec_error():
    """At (12, 0.5, 2) under a chi=24 cap the worst covariance entry (about 9.1e-3) is off more
    than the row's eec (about 8.2e-4), so comparing covariances catches more than eec does."""
    sol = solve_end_bath(KitaevParams(N=12, w=0.5, mu=2.0, delta=1.0), GAIN, max_chi=24)
    worst = np.abs(covariance(sol.state) - sol.spectrum.gamma).max()
    eec_error = abs(sol.report.eec - gaussian_report(sol.spectrum.gamma)[0])
    assert worst > 5 * eec_error > 0


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
    slope, intercept, _ = log_linear_fit([1, 2], [1.0, 2.0])
    assert (slope, intercept) == pytest.approx((np.log(2.0), -np.log(2.0)), abs=1e-12)
    with pytest.raises(ValueError):
        log_linear_fit([2, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        log_linear_fit([1, 2, 3], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        log_linear_fit([1, 2, 3], [1.0, 2.0])
    for x, y in (([1, 2, 3], [1.0, np.nan, 2.0]), ([1, 2, 3], [1.0, np.inf, 2.0]),
                 ([1, np.nan, 3], [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match="finite"):
            log_linear_fit(x, y)
