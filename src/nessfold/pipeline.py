"""End-to-end driver: physical parameters in, normalized tensor state out.

Chains the construction stages in order (Hamiltonian, the covariance front
end of `spectral`: drift and source, mode decomposition and transfer stack;
stack folding, gate replay, observables) and surfaces each stage's typed
failure unchanged so callers can map it to a status.

A solve runs with numpy's OpenBLAS pinned to one thread: the replay's SVDs
act on blocks of a few hundred rows at most, where waking and syncing BLAS
threads costs more than the work they share.  The replay's scipy gesvd
fallback runs on scipy's own OpenBLAS, which it pins the same way.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import UnphysicalReadout
from .folding import EPS_FOLD_DEFAULT, FoldResult, fold
from .model import EndBathParams, KitaevParams, build_kitaev, end_baths
from .observables import ObservableReport, build_report
from .spectral import (
    EPS_Z_DEFAULT,
    ModeSpectrum,
    build_liouvillian,
    build_stack,
    decompose,
    orthogonality_residual,
    stable_projector,
)
from .tns import TRUNC_TOL_DEFAULT, TensorState, apply_inverse_sequence, normalize_vacuum, product_state


def _openblas_threads(path=None):
    """(get, set) thread-count functions of the OpenBLAS the extension at path links
    (numpy.linalg's by default), or None.

    None on other BLAS builds (MKL, Accelerate) or when the extension cannot be
    loaded; pinning then does nothing.
    """
    try:
        lib = ctypes.CDLL(path or np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@functools.cache
def scipy_blas_threads():
    """(get, set) of the OpenBLAS scipy.linalg links, which wheels ship apart from numpy's,
    or None.  Loads scipy, so only the tensor layer's gesvd fallback asks for it."""
    from scipy.linalg import _flapack

    return _openblas_threads(_flapack.__file__)


_BLAS_THREADS = _openblas_threads()
# OpenBLAS's thread count is process-wide: the first block to pin a library saves its count,
# the last block to leave restores every count saved
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = []  # (handle, count found), in the order pinned


@contextmanager
def one_blas_thread(*extra):
    """Run the block with numpy's OpenBLAS, and each extra (get, set) pair that is not None,
    on one thread, then restore the counts found.

    Nested and concurrent blocks leave each count as the first block to pin it found it.
    """
    global _pin_depth
    with _pin_lock:
        for blas in (_BLAS_THREADS, *extra):
            if blas is not None and blas not in [h for h, _ in _pin_saved]:
                _pin_saved.append((blas, blas[0]()))
                blas[1](1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                # last pinned first, so two handles on one library end at the count first found
                for (_, put), count in reversed(_pin_saved):
                    put(count)
                _pin_saved.clear()


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

    `report` is None only on the solution an UnphysicalReadout carries."""

    spectrum: ModeSpectrum
    foldResult: FoldResult
    state: TensorState
    report: ObservableReport | None
    orthoResidual: float


def solve(
    params: KitaevParams,
    baths,
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
        normalize_vacuum(state)
        sol = NessSolution(spectrum=spectrum, foldResult=fold_result, state=state, report=None,
                           orthoResidual=ortho)
        try:
            report = build_report(state)
        except UnphysicalReadout as exc:
            exc.solution = sol
            raise
    return dataclasses.replace(sol, report=report)


def solve_end_bath(
    params: KitaevParams,
    bath_params: EndBathParams,
    trunc_tol: float = TRUNC_TOL_DEFAULT,
    max_chi: int = 0,
    eps_z: float = EPS_Z_DEFAULT,
    eps_fold: float = EPS_FOLD_DEFAULT,
) -> NessSolution:
    """Convenience wrapper for the standard two-end bath layout."""
    channels = end_baths(params.N, bath_params)
    return solve(params, channels, trunc_tol=trunc_tol, max_chi=max_chi, eps_z=eps_z, eps_fold=eps_fold)
