"""Timed passes, answer checks and metrics of one benchmark workload.

Imported by `run.py` after it has put the checkout's `src/` first on the path.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import nessfold
from nessfold import NessfoldError, build_kitaev, end_baths, pipeline

from reference import eec_error, occ_error, reference_observables, stack_readout
from spans import TraceError, Tracer, layer_metrics
from workloads import ACCURACY_TOL, GAIN_BATHS, LAYERS, WORKLOADS, Point, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5
MIN_PASSES = 2
PIN_TOL = 1e-9
# what a solve may raise: typed solver failures, and the ValueError an
# observable raises on complex leakage (LinAlgError is a ValueError too)
SOLVE_ERRORS = (NessfoldError, ValueError)

END_TO_END_UNITS = {
    "sweep_s": "s",
    "eec_relerr.max": "1",
    "occ_abserr.max": "1",
    "ok_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "tns.svd_s": "s",
    "tns.svd_calls": "count",
    "tns.svd_flops": "flop",
    "tns.svd_retries": "count",
    "tns.qr_s": "s",
    "tns.qr_calls": "count",
    "tns.other_s": "s",
    "tns.gates_2site": "count",
    "tns.replay_s": "s",
    "tns.max_bond": "count",
    "tns.discarded_weight": "1",
    "tns.vacuum_amp": "1",
    "folding.s": "s",
    "folding.rotations": "count",
    "folding.rotations_nonzero": "count",
    "spectral.decompose_s": "s",
    "spectral.stack_s": "s",
    "liouvillian.s": "s",
    "model.s": "s",
    "observables.s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_frac": "1",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nessfold
nessfold.solve_end_bath(nessfold.KitaevParams(N=2, w=1.0, mu=1.0, delta=1.0),
                        nessfold.EndBathParams(gamma21=1.0, gamma22=1.0))
print(time.perf_counter() - t0)
"""


class PinFailure(RuntimeError):
    """The reference disagrees with an independent readout; nothing may be reported."""


def measure_setup() -> float:
    """Wall time of a fresh process importing nessfold and finishing one N=2 solve."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def params_of(p: Point) -> nessfold.KitaevParams:
    return nessfold.KitaevParams(N=p.N, w=p.w, mu=p.mu, delta=p.delta)


def transfer_stack(params, baths):
    """The stack the fold consumes, built through the public stages."""
    H = nessfold.build_kitaev(params)
    L = nessfold.build_liouvillian(H, nessfold.end_baths(params.N, baths))
    return nessfold.build_stack(nessfold.stable_projector(nessfold.decompose(L)), params.N)


def run_pass(points: list, tracer: Tracer | None = None) -> tuple[float, list]:
    """One timed pass; a solve that raises a solver error is kept as its exception."""
    out = []
    t0 = time.perf_counter()
    for i, p in enumerate(points):
        if tracer is not None:
            tracer.request = i
        try:
            out.append(pipeline.solve_end_bath(params_of(p), p.baths, max_chi=p.max_chi))
        except SOLVE_ERRORS as exc:
            out.append(exc)
    return time.perf_counter() - t0, out


def check_answer(workload: Workload, answer, ref) -> tuple[bool, float, float]:
    """(passes, eec error, occupancy error) of one solve against its reference.

    An ungated workload passes on any finite answer.
    """
    if isinstance(answer, Exception):
        return False, float("nan"), float("nan")
    e_err = eec_error(answer.report.eec, ref[0])
    o_err = occ_error(answer.report.occupancy, ref[1])
    ok = bool(np.isfinite(e_err) and np.isfinite(o_err))
    if workload.gated:
        ok = ok and e_err <= ACCURACY_TOL and o_err <= ACCURACY_TOL
    return ok, e_err, o_err


def pin_reference() -> None:
    """Lyapunov reference against the stack readout X = -a^-1 b at the ROADMAP N=8 point."""
    params = nessfold.KitaevParams(N=8, w=0.5, mu=2.0, delta=1.0)
    stack = transfer_stack(params, GAIN_BATHS)
    ref = reference_observables(build_kitaev(params).A, end_baths(8, GAIN_BATHS))
    eec, occ = stack_readout(stack.R)
    e_err, o_err = eec_error(eec, ref[0]), occ_error(occ, ref[1])
    if not (e_err <= PIN_TOL and o_err <= PIN_TOL):
        raise PinFailure(f"reference pin failed at N=8: eec error {e_err:.3e}, occupancy error {o_err:.3e}")


def mps_norm(state) -> float:
    """||v|| of a tensor state by a left-to-right transfer contraction."""
    E = np.ones((1, 1), dtype=complex)
    for t in state.tensors:
        # E'[c, d] = sum_{a, b, p} conj(t[a, p, c]) E[a, b] t[b, p, d]
        E = np.tensordot(t.conj(), np.tensordot(E, t, axes=([1], [0])), axes=([0, 1], [0, 1]))
    return float(np.sqrt(abs(E[0, 0])))


def pass_counts(answers: list) -> dict:
    """Exact counts and state diagnostics of one pass, computed outside the timed region."""
    out = {"folding.rotations": 0, "folding.rotations_nonzero": 0, "tns.gates_2site": 0,
           "tns.max_bond": 0, "tns.discarded_weight": 0.0, "tns.vacuum_amp": 0.0}
    for ans in answers:
        if isinstance(ans, Exception):
            continue
        nonzero = [r for r in ans.foldResult.rotations if r.theta != 0.0]
        out["folding.rotations"] += len(ans.foldResult.rotations)
        out["folding.rotations_nonzero"] += len(nonzero)
        # odd pair index: nearest-neighbour gate, one SVD each (see nessfold.tns)
        out["tns.gates_2site"] += sum(1 for r in nonzero if r.m % 2 == 1)
        out["tns.max_bond"] = max(out["tns.max_bond"], int(ans.report.maxBond))
        out["tns.discarded_weight"] = max(out["tns.discarded_weight"], float(ans.state.discardedWeight))
        # ||v|| / |c0|: how much a 2-norm truncation error is amplified in the observables
        out["tns.vacuum_amp"] = max(out["tns.vacuum_amp"], mps_norm(ans.state) * abs(ans.state.z0))
    return out


def _openblas_runtime() -> dict:
    """Config string and thread count reported by each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    info["threads"] = int(threads())
                if config is not None and "config" not in info:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    info["config"] = config().decode(errors="replace")
        found[Path(lib).name] = info
    return found


def env_record() -> dict:
    """Cores, BLAS build and runtime threads, thread variables and versions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {}
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas,
        "blas_runtime": _openblas_runtime(),
        "thread_vars": {k: os.environ.get(k) for k in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class Tally:
    """Pass times and answer checks accumulated over a run."""

    plain_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    eec_max: float = 0.0
    occ_max: float = 0.0

    def check(self, workload: Workload, answers: list, refs: list) -> None:
        for ans, ref in zip(answers, refs):
            ok, e_err, o_err = check_answer(workload, ans, ref)
            self.attempted += 1
            self.failed += not ok
            if not isinstance(ans, Exception):
                self.eec_max = max(self.eec_max, e_err)
                self.occ_max = max(self.occ_max, o_err)


def traced_pass(points: list, tally: Tally) -> list:
    tracer = Tracer()
    tracer.install(pipeline)
    try:
        elapsed, answers = run_pass(points, tracer)
    finally:
        tracer.uninstall()
    tracer.require(LAYERS)
    metrics = layer_metrics(tracer)
    if metrics["tns.svd_calls"] == 0:
        raise TraceError("tns ran but no SVD call was counted")
    tally.traced_s.append(elapsed)
    tally.layers.append(metrics)
    tally.counts.append(pass_counts(answers))
    tally.spans.append(tracer.to_json())
    return answers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the result object (last stdout line)."""
    workload = WORKLOADS[name]
    nessfold.solve_end_bath(nessfold.KitaevParams(N=2, w=1.0, mu=1.0, delta=1.0),
                            nessfold.EndBathParams(gamma21=1.0, gamma22=1.0))
    pin_reference()
    points = workload.points(seed)
    refs = [reference_observables(build_kitaev(params_of(p)).A, end_baths(p.N, p.baths)) for p in points]

    tally = Tally()
    # set-up samples are spread between the passes, so that they and the
    # passes see the same stretch of machine load
    setup = []
    start = time.perf_counter()
    while True:
        if not trace and len(setup) < SETUP_RUNS:
            setup.append(measure_setup())
        elapsed, answers = run_pass(points)
        tally.plain_s.append(elapsed)
        tally.check(workload, answers, refs)
        if trace:
            tally.check(workload, traced_pass(points, tally), refs)
        if len(tally.plain_s) >= (1 if trace else MIN_PASSES) and time.perf_counter() - start >= seconds:
            break
    while not trace and len(setup) < SETUP_RUNS:
        setup.append(measure_setup())

    if trace:
        metrics = {k: statistics.median(run[k] for run in tally.layers) for k in tally.layers[0]}
        metrics.update(tally.counts[-1])
        metrics["trace.overhead_frac"] = statistics.median(tally.traced_s) / statistics.median(tally.plain_s) - 1.0
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "passes": tally.spans}, fh)
    else:
        metrics = {
            "sweep_s": statistics.median(tally.plain_s),
            # floored at the tolerance so round-off reordering never reads as a regression
            "eec_relerr.max": max(tally.eec_max, ACCURACY_TOL),
            "occ_abserr.max": max(tally.occ_max, ACCURACY_TOL),
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"env": env_record(), "workload": name, "seed": seed,
                      "pass_s": tally.plain_s, "traced_pass_s": tally.traced_s}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
