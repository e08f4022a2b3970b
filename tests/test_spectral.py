"""Mode decomposition, stable projector, and transfer stack assembly."""

import numpy as np
import pytest

from nessfold.exceptions import NonUniqueNess, SingularEigenbasis
from nessfold.liouvillian import LiouvillianCoeffs, build_liouvillian
from nessfold.model import EndBathParams, KitaevParams, build_kitaev, end_baths
from nessfold.spectral import (
    TransferStack,
    build_stack,
    decompose,
    orthogonality_residual,
    stable_projector,
)

BP = EndBathParams(gamma11=0.4, gamma21=1.0, gamma12=0.7, gamma22=1.3)


def coeffs(n=3, w=1.2, mu=0.9, delta=1.0, bp=BP):
    return build_liouvillian(build_kitaev(KitaevParams(N=n, w=w, mu=mu, delta=delta)),
                             end_baths(n, bp))


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
    L = coeffs(n=2)
    spec = decompose(L)
    M = -4.0 * L.Lmat
    np.testing.assert_allclose(spec.Z @ np.diag(spec.z) @ spec.Zinv, M, atol=1e-10)


def test_projector_properties():
    L = coeffs(n=3)
    spec = decompose(L)
    S = stable_projector(spec)
    assert np.abs(S @ S - S).max() < 1e-12
    assert np.trace(S).real == pytest.approx(2 * L.N, abs=1e-10)
    # S acts as identity on the stable eigenvectors and kills the others
    plus, minus = spec.Z[:, : 2 * L.N], spec.Z[:, 2 * L.N:]
    np.testing.assert_allclose(S @ plus, plus, atol=1e-12)
    assert np.abs(S @ minus).max() < 1e-12


def test_degenerate_point_raises():
    with pytest.raises(NonUniqueNess):
        decompose(coeffs(n=4, w=1.0, mu=0.0,
                         bp=EndBathParams(gamma21=1.0, gamma22=1.0)))


def test_threshold_is_relative():
    # a huge eps_z swallows genuinely damped modes and must refuse, proving
    # the threshold scales with the spectrum rather than being absolute
    L = coeffs(n=2)
    decompose(L, eps_z=1e-8)
    with pytest.raises(NonUniqueNess):
        decompose(L, eps_z=0.99)


def test_singular_eigenbasis_guard():
    K = 1e10
    M = np.array([
        [1.0, K, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, K],
        [0.0, 0.0, 0.0, -1.0],
    ])
    fake = LiouvillianCoeffs(N=1, Lmat=-M / 4.0, Lscalar=-1.0)
    with pytest.raises(SingularEigenbasis):
        decompose(fake)


def test_build_stack_rows():
    L = coeffs(n=2)
    S = stable_projector(decompose(L))
    stack = build_stack(S, 2)
    assert stack.R.shape == (4, 8)
    np.testing.assert_allclose(stack.R[1], (S[2] + 1j * S[3]) / 2.0)


def test_build_stack_shape_validation():
    with pytest.raises(ValueError):
        build_stack(np.zeros((6, 6)), 2)
    with pytest.raises(ValueError):
        TransferStack(N=2, R=np.zeros((4, 6)))


def test_orthogonality_residual_on_genuine_stack():
    L = coeffs(n=3)
    stack = build_stack(stable_projector(decompose(L)), 3)
    assert orthogonality_residual(stack) < 1e-12


def test_orthogonality_residual_counts_diagonal():
    stack = TransferStack(N=1, R=np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]], dtype=complex))
    assert orthogonality_residual(stack) == pytest.approx(1.0)
