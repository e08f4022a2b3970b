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


def _require_normalized(state: TensorState) -> None:
    if state.z0 == 0:
        raise ValueError("state is not vacuum-normalized; call normalize_vacuum first")


def end_to_end_correlation(state: TensorState) -> float:
    """2|z0 (c_A + c_B)| with c_A occupied at (2, 2N-1) and c_B at (1, 2N)."""
    _require_normalized(state)
    n2 = state.sites
    if n2 < 4:
        raise ValueError(f"end-to-end correlation needs at least 2 physical sites, got {n2} modes")
    inner = [0] * n2
    inner[1] = 1
    inner[n2 - 2] = 1
    outer = [0] * n2
    outer[0] = 1
    outer[n2 - 1] = 1
    c_a = coefficient(state, inner)
    c_b = coefficient(state, outer)
    return float(2.0 * abs(state.z0 * (c_a + c_b)))


def _imag_tolerance(state: TensorState) -> float:
    # hermiticity leakage scales like the root of the discarded weight; the
    # floor covers exact-tolerance runs where discards sit at roundoff
    return max(IMAG_TOL, 10.0 * float(np.sqrt(max(state.discardedWeight, 0.0))))


def site_occupancy(state: TensorState, j: int) -> float:
    """(1 + Re[z0 c_j])/2 with c_j the coefficient occupied exactly at the pair (2j-1, 2j);
    raises UnphysicalReadout on complex leakage or a value outside [0, 1]."""
    _require_normalized(state)
    n_sites = state.sites // 2
    if not 1 <= j <= n_sites:
        raise ValueError(f"site must lie in 1..{n_sites}, got {j}")
    bits = [0] * state.sites
    bits[2 * j - 2] = bits[2 * j - 1] = 1
    val = state.z0 * coefficient(state, bits)
    if abs(val.imag) > _imag_tolerance(state):
        raise UnphysicalReadout(f"occupancy at site {j} has imaginary part {val.imag:.3e}")
    occ = float((1.0 + val.real) / 2.0)
    if occ < -1e-8 or occ > 1 + 1e-8:
        raise UnphysicalReadout(f"occupancy at site {j} is {occ!r}, outside [0,1]")
    return occ


def occupancy_profile(state: TensorState) -> np.ndarray:
    n_sites = state.sites // 2
    return np.array([site_occupancy(state, j) for j in range(1, n_sites + 1)])


def build_report(state: TensorState) -> ObservableReport:
    n_sites = state.sites // 2
    eec = end_to_end_correlation(state) if n_sites >= 2 else 0.0
    return ObservableReport(eec=eec, occupancy=occupancy_profile(state), maxBond=int(state.maxBondSeen))


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
    if ss_tot == 0:
        return float(slope), float(intercept), 0.0 if ss_res == 0 else float("inf")
    return float(slope), float(intercept), float(np.sqrt(max(ss_res / ss_tot, 0.0)))
