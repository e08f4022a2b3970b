"""End-to-end guarantees, one numbered block per advertised criterion.

Criteria 1, 2, 4, 5 and 7 run the solver's checks of `nessfold validate` (the
`nessfold.cli.CHECKS` registry, which holds their tolerances) under the wall-time
budgets stated here.  Those checks compare the readout with the N=1 closed form and
with the solve's own covariance; criteria 2, 4 and 7 also compare the solver with the
dense second-space kernel in their own bodies, which catches an error that the replay
and the covariance share.  Criterion 3 checks the two dense oracles against each
other, through the first-to-second-space map in `helpers`.  Criterion 6 is the randomized property suite:
ten invariants, 100 derandomized cases each, drawn from the full supported
parameter ranges plus a pinned generic fixture.  Criterion 8 is the
(non-binding) runtime-scaling diagnostic, run at the documented capped-bond
configuration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nessfold import cli
from nessfold.cli import CHECKS
from nessfold.exceptions import ClosureViolation, NonUniqueNess, SingularEigenbasis
from nessfold.folding import fold
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.oracle import (dense_first_space_ness, dense_second_space_ness, occupancy_from_vec,
                             second_space_liouvillian)
from nessfold.pipeline import solve_end_bath
from nessfold.spectral import build_liouvillian, build_stack, decompose, orthogonality_residual, stable_projector

from helpers import (dense_coefficients, error_metric, gauged_stack, liouvillian_by_channel, physical_phases,
                     reference_projector, replay, rho_to_second_space, rotation_gate, scalar_eigenvalue)

FIG1_BATHS = EndBathParams(gamma11=1.3, gamma21=2.2, gamma12=3.4, gamma22=4.1)
INJECT_BATHS = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)


@contextmanager
def within(budget_s):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"took {elapsed:.2f}s"


def run_check(name):
    ok, detail = CHECKS[name]()
    assert ok, detail


def dense_ness(params, bath_params):
    """The dense second-space kernel's vacuum-normalized coefficient vector at one point."""
    return dense_second_space_ness(build_kitaev(params), end_baths(params.N, bath_params)).vec


def second_space_error(params, bath_params) -> float:
    """Relative error of the solver's coefficient vector, taken to the physical gauge, against
    the dense kernel's."""
    sol = solve_end_bath(params, bath_params)
    vec = sol.state.z0 * physical_phases(sol.state.sites) * dense_coefficients(sol.state)
    return error_metric(vec, dense_ness(params, bath_params))


# ---------------------------------------------------------------- 1-5


def test_criterion_1_single_site_analytic():
    """N=1 with rates (1, gamma2) matches the closed form to 1e-12 in under a second."""
    with within(1.0):
        run_check("analytic_single_site")


def test_criterion_2_second_space_kernel():
    """N=2,3 over both half-step panels match the dense kernel to 1e-10 in under a minute."""
    with within(60.0):
        run_check("second_space_oracle")
        worst = max(second_space_error(params, cli._FIG1_BATHS) for params in cli._FIG1_PARAMS)
        assert worst <= 1e-10, f"max rel err {worst:.3e} over {len(cli._FIG1_PARAMS)} points (tol 1e-10)"


def test_criterion_3_cross_oracle():
    """The two brute-force routes agree with each other to 1e-10 on every criterion-2 point."""
    worst = 0.0
    for params in cli._FIG1_PARAMS:
        channels = end_baths(params.N, cli._FIG1_BATHS)
        first = rho_to_second_space(dense_first_space_ness(params, channels).rho)
        second = dense_second_space_ness(build_kitaev(params), channels).vec
        worst = max(worst, error_metric(first, second))
    assert worst <= 1e-10, f"max rel err {worst:.3e} over {len(cli._FIG1_PARAMS)} points (tol 1e-10)"


def test_criterion_4_decay_profile():
    """Injection-only chain at w=0, mu=4: odd-N correlation vanishes, even-N decays cleanly,
    and the N=5 end occupancies match the dense kernel to 1e-8."""
    with within(120.0):
        run_check("decay_profile")
        params = KitaevParams(N=5, w=0.0, mu=4.0, delta=1.0)
        occupancy = solve_end_bath(params, INJECT_BATHS).report.occupancy
        ref = dense_ness(params, INJECT_BATHS)
        err = max(abs(occupancy[j - 1] - occupancy_from_vec(ref, 5, j)) for j in (1, 5))
        assert err <= 1e-8, f"end occupancy err {err:.3e} (tol 1e-8)"


@pytest.mark.parametrize("n", [4, 8])
def test_criterion_5_degeneracy_detected(monkeypatch, n):
    """w=1, mu=0 has undamped modes; the solver must refuse, not return something."""
    monkeypatch.setattr(cli, "_DEGENERATE_SIZES", (n,))
    run_check("degeneracy_detection")


# ---------------------------------------------------------------- 6

PROPERTY_SETTINGS = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

FIXTURE_CASE = (KitaevParams(N=3, w=1.5, mu=1.0, delta=1.0), FIG1_BATHS)


@st.composite
def chain_cases(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    w = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    mu = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    delta = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    rates = [draw(st.floats(min_value=0.2, max_value=3.0, allow_nan=False)) for _ in range(4)]
    return KitaevParams(N=n, w=w, mu=mu, delta=delta), EndBathParams(*rates)


def _chain(case):
    params, bp = case
    return build_kitaev(params), end_baths(params.N, bp)


def _coeffs(case):
    return build_liouvillian(*_chain(case))


def _spectrum_or_skip(L):
    try:
        return decompose(L)
    except (NonUniqueNess, SingularEigenbasis):
        assume(False)


def _solved_or_skip(params, bp):
    try:
        return solve_end_bath(params, bp)
    except (NonUniqueNess, SingularEigenbasis, ClosureViolation):
        assume(False)


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_liouvillian_antisymmetry(case):
    Lmat = liouvillian_by_channel(*_chain(case))
    assert np.abs(Lmat + Lmat.T).max() <= 1e-14
    assert np.abs(np.diag(Lmat)).max() == 0.0


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_occupied_eigen_relation(case):
    """The totally occupied second-space state is an exact eigenvector at Lscalar."""
    H, chans = _chain(case)
    Lscalar = scalar_eigenvalue(chans)
    Lop = second_space_liouvillian(H, chans)
    e = np.zeros(Lop.shape[0])
    e[-1] = 1.0
    resid = np.abs(Lop @ e - Lscalar * e).max()
    assert resid <= 1e-10 * max(1.0, abs(Lscalar))


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_mode_pairing(case):
    """Decay modes come in +-z pairs (nearest-match metric, scale-relative)."""
    spec = _spectrum_or_skip(_coeffs(case))
    z = spec.z
    d = np.abs(z[:, None] + z[None, :])
    assert d.min(axis=1).max() <= 1e-8 * max(1.0, float(np.abs(z).max()))


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_projector_idempotent_rank(case):
    params, _ = case
    _spectrum_or_skip(_coeffs(case))
    S = reference_projector(liouvillian_by_channel(*_chain(case)))
    assert np.abs(S @ S - S).max() <= 1e-10
    assert abs(np.trace(S).real - 2 * params.N) <= 1e-10


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_stack_orthogonality(case):
    """Bilinear self-products vanish before folding and survive the rotations, which the fold
    reads in the real gauge and which act on that gauge's complex stack."""
    params, _ = case
    spec = _spectrum_or_skip(_coeffs(case))
    stack = build_stack(stable_projector(spec), params.N)
    assert orthogonality_residual(stack) <= 1e-10
    try:
        result = fold(stack)
    except ClosureViolation:
        assume(False)
    assert float(np.abs(gauged_stack(stack) @ gauged_stack(stack).T).max()) <= 1e-10
    W = replay(gauged_stack(stack), result)
    assert float(np.abs(W @ W.T).max()) <= 1e-9


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_fold_residual(case):
    params, _ = case
    stack = build_stack(stable_projector(_spectrum_or_skip(_coeffs(case))), params.N)
    try:
        result = fold(stack)
    except ClosureViolation:
        assume(False)
    assert result.residual <= 1e-10


@PROPERTY_SETTINGS
@given(
    m=st.integers(min_value=2, max_value=16),
    theta=st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False),
)
@example(m=3, theta=0.7)
def test_criterion_6_gate_unitarity(m, theta):
    g = rotation_gate(m, theta)
    eye = np.eye(g.shape[0])
    assert np.abs(g.conj().T @ g - eye).max() <= 1e-12


@PROPERTY_SETTINGS
@given(m=st.integers(min_value=2, max_value=16))
@example(m=2)
def test_criterion_6_pair_generator_squares_to_minus_identity(m):
    """At theta=pi the gate equals the bare pair generator G, and G^2 = -1."""
    G = rotation_gate(m, np.pi)
    eye = np.eye(G.shape[0])
    assert np.abs(G @ G + eye).max() <= 1e-14


@PROPERTY_SETTINGS
@given(case=chain_cases())
@example(case=FIXTURE_CASE)
def test_criterion_6_reconstruction_parity(case):
    """Physical states carry no odd-parity second-space weight."""
    params, bp = case
    sol = _solved_or_skip(params, bp)
    vec = sol.state.z0 * dense_coefficients(sol.state)
    odd = np.array([bin(i).count("1") % 2 == 1 for i in range(vec.size)])
    assert np.abs(vec[odd]).max() <= 1e-10 * max(1.0, float(np.abs(vec).max()))


@PROPERTY_SETTINGS
@given(case=chain_cases(min_n=2))
@example(case=FIXTURE_CASE)
def test_criterion_6_correlation_sign_symmetry(case):
    """The end-to-end correlation is even under w -> -w and mu -> -mu."""
    params, bp = case
    base = _solved_or_skip(params, bp).report.eec
    flip_w = KitaevParams(N=params.N, w=-params.w, mu=params.mu, delta=params.delta)
    flip_mu = KitaevParams(N=params.N, w=params.w, mu=-params.mu, delta=params.delta)
    for flipped in (flip_w, flip_mu):
        other = _solved_or_skip(flipped, bp).report.eec
        assert abs(other - base) <= 1e-8 * max(1.0, base)


# ---------------------------------------------------------------- 7


def test_criterion_7_dense_equivalence():
    """Generic N=4 point matches the dense kernel to 1e-9 in under 30 seconds."""
    with within(30.0):
        run_check("dense_equivalence")
        err = second_space_error(KitaevParams(N=4, w=1.5, mu=1.0, delta=1.0), INJECT_BATHS)
        assert err <= 1e-9, f"rel err {err:.3e} at N=4 (tol 1e-9)"


# ---------------------------------------------------------------- 8


def test_criterion_8_runtime_scaling():
    """Runtime must not double per added site (diagnostic, capped bond dimension).

    Uncapped exact-tolerance runs hit genuinely growing entanglement on this
    parameter line, so the scaling diagnostic runs at the documented bench
    configuration maxChi=64.  The fitted exponent of log2(runtime) vs N would
    be 1.0 for state-space doubling; the capped pipeline sits well below.
    """
    sizes = [4, 6, 8, 10, 12, 14, 16]
    t0 = time.perf_counter()
    times = []
    for n in sizes:
        t1 = time.perf_counter()
        solve_end_bath(KitaevParams(N=n, w=1.5, mu=1.0, delta=1.0), INJECT_BATHS, max_chi=64)
        times.append(time.perf_counter() - t1)
    total = time.perf_counter() - t0
    assert total < 600.0, f"sweep took {total:.1f}s"

    lt = np.log2(np.maximum(times, 1e-6))
    doubling_slope = float(np.polyfit(sizes, lt, 1)[0])
    assert doubling_slope < 1.0, f"log2 runtime slope {doubling_slope:.2f} per site"

    loglog_slope = float(np.polyfit(np.log(sizes), np.log(np.maximum(times, 1e-6)), 1)[0])
    assert np.isfinite(loglog_slope)
