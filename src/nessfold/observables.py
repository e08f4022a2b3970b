"""Physical quantities extracted from the normalized stationary tensor state.

Everything reduces to ratios of basis coefficients against the vacuum one, so
the trace factors dropped during construction cancel identically.  A pair of
occupied second-space sites (i, j) selects the expectation of the ordered
Majorana pair gamma_i * (i gamma_j) in the physical state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import UnphysicalReadout
from .tns import TensorState, coefficient

IMAG_TOL = 1e-10


@dataclass(frozen=True)
class ObservableReport:
    """Observables of one solved parameter point."""

    eec: float
    occupancy: np.ndarray
    maxBond: int

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=float).copy()
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        if self.eec < 0:
            raise ValueError(f"eec must be nonnegative, got {self.eec}")


def _occupied(n2: int, *positions: int) -> list:
    """Occupations of n2 modes with exactly the given 1-based positions occupied."""
    return [int(k + 1 in positions) for k in range(n2)]


def build_report(state: TensorState) -> ObservableReport:
    """Every observable of a vacuum-normalized state, each read as z0 times an amplitude:
    eec = 2|z0 (c_A + c_B)| with c_A occupied at (2, 2N-1) and c_B at (1, 2N), 0.0 on a lone
    site, and site j's occupancy (1 + Re[z0 c_j])/2 with c_j occupied at (2j-1, 2j).
    UnphysicalReadout refuses an occupancy with complex leakage or outside [0, 1]."""
    if state.z0 == 0:
        raise ValueError("state is not vacuum-normalized; call normalize_vacuum first")
    n2 = state.sites
    eec = 0.0
    if n2 >= 4:
        c_a = coefficient(state, _occupied(n2, 2, n2 - 1))
        c_b = coefficient(state, _occupied(n2, 1, n2))
        eec = float(2.0 * abs(state.z0 * (c_a + c_b)))
    # hermiticity leakage scales like the root of the discarded weight; the
    # floor covers exact-tolerance runs where discards sit at roundoff
    imag_tol = max(IMAG_TOL, 10.0 * float(np.sqrt(max(state.discardedWeight, 0.0))))
    occupancy = []
    for j in range(1, n2 // 2 + 1):
        val = state.z0 * coefficient(state, _occupied(n2, 2 * j - 1, 2 * j))
        if abs(val.imag) > imag_tol:
            raise UnphysicalReadout(f"occupancy at site {j} has imaginary part {val.imag:.3e}")
        occ = float((1.0 + val.real) / 2.0)
        if occ < -1e-8 or occ > 1 + 1e-8:
            raise UnphysicalReadout(f"occupancy at site {j} is {occ!r}, outside [0,1]")
        occupancy.append(occ)
    return ObservableReport(eec=eec, occupancy=np.array(occupancy), maxBond=int(state.maxBondSeen))


def log_linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares fit of log(y) vs x; returns (slope, intercept, residual).

    The residual is sqrt(1 - R^2): the fraction of standard deviation the
    linear model leaves unexplained, 0 for a perfect exponential decay.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 matching points")
    if (y <= 0).any():
        raise ValueError("log fit needs strictly positive values")
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    # a flat series is fit exactly; polyfit's roundoff slope leaves ss_res a few ulps above 0
    residual = float(np.sqrt(ss_res / ss_tot)) if ss_tot else 0.0
    return float(slope), float(intercept), residual
