"""End-to-end driver: physical parameters in, normalized tensor state out.

Chains the construction stages in order (Hamiltonian, the covariance front
end of `spectral`: drift and source, mode decomposition and transfer stack;
stack folding, gate replay, observables) and surfaces each stage's typed
failure unchanged so callers can map it to a status.

A solve runs with numpy's OpenBLAS pinned to one thread (`tns.one_blas_thread`):
the replay's SVDs act on blocks of a few hundred rows at most, where waking and
syncing BLAS threads costs more than the work they share.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import UnphysicalReadout, VacuumVanishes
from .folding import EPS_FOLD_DEFAULT, FoldResult, fold
from .model import EndBathParams, KitaevParams, build_kitaev, end_baths
from .spectral import (
    EPS_Z_DEFAULT,
    ModeSpectrum,
    build_liouvillian,
    build_stack,
    decompose,
    orthogonality_residual,
    stable_projector,
)
from .tns import (
    TRUNC_TOL_DEFAULT,
    ObservableReport,
    TensorState,
    apply_inverse_sequence,
    build_report,
    normalize_vacuum,
    one_blas_thread,
    product_state,
)


def check_settings(trunc_tol, max_chi, eps_z, eps_fold) -> None:
    """Raise ValueError unless trunc_tol is finite and >= 0, eps_z and eps_fold are finite
    and > 0, and max_chi is an integer >= 0 (0 = unlimited)."""
    for name, value, zero_ok in (("trunc_tol", trunc_tol, True), ("eps_z", eps_z, False),
                                 ("eps_fold", eps_fold, False)):
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
            raise ValueError(f"{name} must be a finite number {'>=' if zero_ok else '>'} 0, got {value!r}")
    if isinstance(max_chi, bool) or not isinstance(max_chi, numbers.Integral) or max_chi < 0:
        raise ValueError(f"max_chi must be an integer >= 0 (0 = unlimited), got {max_chi!r}")


@dataclass(frozen=True)
class NessSolution:
    """Modes, fold, normalized state and readout of one solve; the stage functions give the rest.

    `state` is float64 in the fold's real gauge, with a real z0: the physical state is this one
    with the occupied entries of each site s (0-based) multiplied by e^{i(pi s/2 + pi/4)}.
    `report` is None only on the solution a VacuumVanishes or UnphysicalReadout carries."""

    spectrum: ModeSpectrum
    foldResult: FoldResult
    state: TensorState
    report: ObservableReport | None
    orthoResidual: float


def solve(
    params: KitaevParams,
    baths,
    *,
    trunc_tol: float = TRUNC_TOL_DEFAULT,
    max_chi: int = 0,
    eps_z: float = EPS_Z_DEFAULT,
    eps_fold: float = EPS_FOLD_DEFAULT,
) -> NessSolution:
    """Solve one parameter point on one BLAS thread; raises the stage errors documented per module,
    or ValueError from check_settings before any stage runs."""
    check_settings(trunc_tol, max_chi, eps_z, eps_fold)
    baths = list(baths)
    with one_blas_thread():
        H = build_kitaev(params)
        L = build_liouvillian(H, baths)
        spectrum = decompose(L, eps_z=eps_z)
        stack = build_stack(stable_projector(spectrum), params.N)
        ortho = orthogonality_residual(stack)
        fold_result = fold(stack, eps_fold=eps_fold)

        state = product_state(fold_result.bits, trunc_tol=trunc_tol, max_chi=max_chi)
        apply_inverse_sequence(state, fold_result)
        sol = NessSolution(spectrum=spectrum, foldResult=fold_result, state=state, report=None,
                           orthoResidual=ortho)
        try:
            normalize_vacuum(state)
            report = build_report(state)
        except (VacuumVanishes, UnphysicalReadout) as exc:
            exc.solution = sol
            raise
    return dataclasses.replace(sol, report=report)


def solve_end_bath(params: KitaevParams, bath_params: EndBathParams, **settings) -> NessSolution:
    """Solve with the standard two-end bath layout; the settings trunc_tol, max_chi, eps_z and
    eps_fold go to solve by keyword."""
    return solve(params, end_baths(params.N, bath_params), **settings)


def log_linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares fit of log(y) vs x; returns (slope, intercept, residual).

    The residual is sqrt(1 - R^2): the fraction of standard deviation the
    linear model leaves unexplained, 0 for a perfect exponential decay.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or not np.isfinite(x).all() or np.unique(x).size < 2:
        raise ValueError("need matching points at two or more distinct finite x")
    if not (np.isfinite(y) & (y > 0)).all():
        raise ValueError("log fit needs finite, strictly positive values")
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    # a flat series is fit exactly; polyfit's roundoff slope leaves ss_res a few ulps above 0
    residual = float(np.sqrt(ss_res / ss_tot)) if ss_tot else 0.0
    return float(slope), float(intercept), residual
