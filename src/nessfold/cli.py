"""Command-line experiment runner.

Subcommands cover single stationary-state solves, correlation-vs-size sweeps,
two-axis phase grids, occupancy profiles, an oracle validation suite, and a
timing benchmark.  Output is CSV (RFC-4180, one header row) or JSON lines,
streamed row by row so long sweeps can be tailed.  The pipeline is seedless;
identical configs produce identical output apart from the runtime column.

Exit codes: 0 success, 1 usage, 2 physical degeneracy (non-unique stationary
state), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial

import numpy as np

from .exceptions import (
    ClosureViolation,
    NessfoldError,
    NonUniqueNess,
    SingularEigenbasis,
    StackDegenerate,
    VacuumVanishes,
)
from .folding import EPS_FOLD_DEFAULT
from .model import EndBathParams, KitaevParams, build_kitaev, end_baths
from .observables import log_linear_fit
from .oracle import (
    analytic_n1,
    dense_first_space_ness,
    dense_second_space_ness,
    error_metric,
    occupancy_from_vec,
    rho_to_second_space,
)
from .pipeline import solve_end_bath
from .spectral import EPS_Z_DEFAULT
from .tns import TRUNC_TOL_DEFAULT, dense_coefficients

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3

STATUS_OK = "ok"
STATUS_NON_UNIQUE = "non_unique"
STATUS_CLOSURE = "closure_violation"
STATUS_VACUUM = "vacuum_vanishes"
STATUS_SINGULAR = "singular_eigenbasis"

_STATUS_EXIT = {
    STATUS_OK: EXIT_OK,
    STATUS_NON_UNIQUE: EXIT_DEGENERATE,
    STATUS_CLOSURE: EXIT_NUMERICAL,
    STATUS_VACUUM: EXIT_NUMERICAL,
    STATUS_SINGULAR: EXIT_NUMERICAL,
}

BASE_COLUMNS = [
    "N", "w", "mu", "delta",
    "gamma11", "gamma21", "gamma12", "gamma22",
    "eec", "occupancy", "maxBond", "foldResidual", "orthoResidual",
    "runtimeSeconds", "status",
]
PHASE_COLUMNS = BASE_COLUMNS + ["fitSlope", "fitResidual", "boundaryMu"]
BENCH_COLUMNS = [
    "N", "w", "mu", "delta",
    "gamma11", "gamma21", "gamma12", "gamma22",
    "runsSeconds", "medianSeconds", "logLogSlope",
]

_FIG1_BATHS = EndBathParams(gamma11=1.3, gamma21=2.2, gamma12=3.4, gamma22=4.1)
_FIG1_POINTS = [(0.5 * k, 1.0) for k in range(9)] + [(1.5, 0.5 * k) for k in range(9)]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2 for physics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- config


def _integer(value) -> int:
    """int() that refuses to truncate: 3 and 3.0 pass, 2.7 does not."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _integer_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [_integer(v) for v in value]


# One row per setting: its name is the config-file key, the argparse dest,
# the RunConfig attribute and, for the point settings, the task key.
_POINT_SETTINGS = (
    ("N", _integer, 2),
    ("w", float, 1.0),
    ("mu", float, 1.0),
    ("delta", float, 1.0),
    ("gamma11", float, 0.0),
    ("gamma21", float, 1.0),
    ("gamma12", float, 0.0),
    ("gamma22", float, 1.0),
    ("trunc_tol", float, TRUNC_TOL_DEFAULT),
    ("max_chi", _integer, 0),
    ("eps_z", float, EPS_Z_DEFAULT),
    ("eps_fold", float, EPS_FOLD_DEFAULT),
)
_SETTINGS = _POINT_SETTINGS + (
    ("sizes", _integer_list, ()),
    ("out", str, "-"),
    ("format", str, "csv"),
    ("jobs", _integer, 1),
    ("dump_fold", str, None),
)
_CASTS = {name: cast for name, cast, _ in _SETTINGS}


class RunConfig:
    """Flat run description: one attribute per _SETTINGS row plus the w/mu sweeps."""

    def __init__(self):
        for name, _, default in _SETTINGS:
            setattr(self, name, default)
        self.wSweep = None
        self.muSweep = None

    def _set(self, name: str, value) -> None:
        try:
            setattr(self, name, _CASTS[name](value))
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad value {value!r} for {name}: {exc}") from exc

    def load_file(self, path: str) -> None:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _UsageError(f"config {path} must hold a JSON object")
        for key, value in doc.items():
            if key in ("w", "mu") and isinstance(value, dict):
                self._set_sweep(key, value)
            elif key in _CASTS:
                self._set(key, value)
            else:
                raise _UsageError(f"unknown config key {key!r}")

    def _set_sweep(self, axis: str, d: dict) -> None:
        missing = {"start", "stop"} - set(d)
        if missing:
            raise _UsageError(f"{axis} sweep needs start/stop, missing {sorted(missing)}")
        try:
            sweep = {key: float(d.get(key, 1.0)) for key in ("start", "stop", "step")}
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"{axis} sweep bounds must be numbers: {exc}") from exc
        if not all(math.isfinite(v) for v in sweep.values()):
            raise _UsageError(f"{axis} sweep bounds must be finite")
        if sweep["step"] <= 0:
            raise _UsageError(f"{axis} sweep step must be positive")
        setattr(self, axis + "Sweep", sweep)

    def apply_flags(self, args: argparse.Namespace) -> None:
        for name in _CASTS:
            value = getattr(args, name, None)
            if value is not None:
                self._set(name, value)
        if getattr(args, "w_range", None) is not None:
            self._set_sweep("w", args.w_range)
        if getattr(args, "mu_range", None) is not None:
            self._set_sweep("mu", args.mu_range)

    def validate_common(self) -> None:
        if self.format not in ("csv", "json"):
            raise _UsageError(f"format must be csv or json, got {self.format!r}")
        if self.jobs < 1:
            raise _UsageError("jobs must be >= 1")
        if self.trunc_tol < 0 or self.eps_z <= 0 or self.eps_fold <= 0:
            raise _UsageError("tolerances must be positive (truncTol may be 0)")
        if self.max_chi < 0:
            raise _UsageError("max-chi must be >= 0 (0 = unlimited)")
        # the model's own checks decide what a valid point is, before any output
        try:
            for n in (self.N, *self.sizes):
                KitaevParams(N=n, w=self.w, mu=self.mu, delta=self.delta)
            EndBathParams(gamma11=self.gamma11, gamma21=self.gamma21,
                          gamma12=self.gamma12, gamma22=self.gamma22)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc


def _sweep_values(sweep: dict) -> list:
    n = int(math.floor((sweep["stop"] - sweep["start"]) / sweep["step"] + 1e-9)) + 1
    if n < 1:
        raise _UsageError("sweep stop lies before start")
    return [round(sweep["start"] + k * sweep["step"], 12) for k in range(n)]


def _parse_range(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    return {"start": start, "stop": stop, "step": step}


def _parse_sizes(text: str) -> list:
    try:
        sizes = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sizes list {text!r}") from exc
    if not sizes:
        raise argparse.ArgumentTypeError("sizes list is empty")
    return sizes


# ---------------------------------------------------------------- workers

_POINT_COLUMNS = BASE_COLUMNS[:8]


def _task_from_config(cfg: RunConfig, **overrides) -> dict:
    task = {name: getattr(cfg, name) for name, _, _ in _POINT_SETTINGS}
    task.update(with_occupancy=False, dump_fold=None)
    task.update(overrides)
    return task


def _solve_task(task: dict) -> dict:
    """Run one parameter point; must stay module-level and picklable."""
    t0 = time.perf_counter()
    row = {key: task[key] for key in _POINT_COLUMNS}
    row.update(eec="", occupancy="", maxBond="", foldResidual="", orthoResidual="",
               status=STATUS_OK)
    try:
        params = KitaevParams(N=task["N"], w=task["w"], mu=task["mu"], delta=task["delta"])
        bath_params = EndBathParams(
            gamma11=task["gamma11"], gamma21=task["gamma21"],
            gamma12=task["gamma12"], gamma22=task["gamma22"],
        )
        sol = solve_end_bath(
            params, bath_params,
            trunc_tol=task["trunc_tol"], max_chi=task["max_chi"],
            eps_z=task["eps_z"], eps_fold=task["eps_fold"],
        )
        row["eec"] = sol.report.eec if params.N >= 2 else ""
        if task["with_occupancy"]:
            row["occupancy"] = ";".join(repr(float(v)) for v in sol.report.occupancy)
        row["maxBond"] = sol.report.maxBond
        row["foldResidual"] = sol.report.foldResidual
        row["orthoResidual"] = sol.orthoResidual
        if task["dump_fold"]:
            _dump_fold(sol, task["dump_fold"])
    except NonUniqueNess:
        row["status"] = STATUS_NON_UNIQUE
    except SingularEigenbasis:
        row["status"] = STATUS_SINGULAR
    except (ClosureViolation, StackDegenerate):
        row["status"] = STATUS_CLOSURE
    except VacuumVanishes:
        row["status"] = STATUS_VACUUM
    row["runtimeSeconds"] = time.perf_counter() - t0
    return row


def _map_tasks(tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(_solve_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_solve_task, tasks)


def _dump_fold(sol, path: str) -> None:
    rots = sol.foldResult.rotations
    doc = {
        "rotations": [{"m": m, "theta": theta, "kind": kind} for m, theta, kind
                      in zip(rots.m.tolist(), rots.theta.tolist(), rots.kind.tolist())],
        "rDiag": [float(v) for v in sol.foldResult.rDiag],
        "signs": [int(v) for v in sol.foldResult.signs],
        "foldResidual": float(sol.foldResult.residual),
        "orthoResidual": float(sol.orthoResidual),
        "bondDims": list(sol.state.bondDims),
        "modes": {"real": [float(v) for v in sol.spectrum.z.real],
                  "imag": [float(v) for v in sol.spectrum.z.imag]},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------- emitters


class RowEmitter:
    """Streams dict rows to CSV or JSON lines with a fixed column order."""

    def __init__(self, stream, columns, fmt: str):
        self.stream = stream
        self.columns = columns
        self._csv = None
        if fmt == "csv":
            self._csv = csv.writer(stream, lineterminator="\n")
            self._csv.writerow(columns)
            stream.flush()

    @staticmethod
    def _plain(value):
        """None for a blank cell, a Python number for a numpy scalar."""
        if value == "" or value is None:
            return None
        return value.item() if isinstance(value, np.generic) else value

    def write(self, row: dict) -> None:
        values = [self._plain(row.get(c, "")) for c in self.columns]
        if self._csv is not None:
            self._csv.writerow(["" if v is None else repr(v) if isinstance(v, float) else str(v)
                                for v in values])
        else:
            self.stream.write(json.dumps(dict(zip(self.columns, values))) + "\n")
        self.stream.flush()


@contextmanager
def _open_out(path: str):
    if path in (None, "", "-"):
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _aggregate_exit(statuses) -> int:
    codes = {_STATUS_EXIT[s] for s in statuses}
    for code in (EXIT_NUMERICAL, EXIT_DEGENERATE):
        if code in codes:
            return code
    return EXIT_OK


# ---------------------------------------------------------------- commands


def cmd_point(cfg: RunConfig, command: str) -> int:
    """`ness` and `occupancy`: one parameter point, one row; occupancy adds the site profile."""
    if cfg.wSweep or cfg.muSweep:
        raise _UsageError(f"{command} runs a single point; ranges belong to phase-grid")
    task = _task_from_config(cfg, with_occupancy=command == "occupancy", dump_fold=cfg.dump_fold)
    with _open_out(cfg.out) as stream:
        emitter = RowEmitter(stream, BASE_COLUMNS, cfg.format)
        row = _solve_task(task)
        emitter.write(row)
        return _STATUS_EXIT[row["status"]]


def _require_sizes(cfg: RunConfig, command: str) -> None:
    if not cfg.sizes:
        raise _UsageError(f"{command} needs a nonempty sizes list")
    if min(cfg.sizes) < 2:
        raise _UsageError("correlation sweeps need sizes >= 2")


def cmd_sweep_size(cfg: RunConfig) -> int:
    _require_sizes(cfg, "sweep-size")
    if cfg.wSweep or cfg.muSweep:
        raise _UsageError("sweep-size sweeps N only; ranges belong to phase-grid")
    tasks = [_task_from_config(cfg, N=n) for n in cfg.sizes]
    with _open_out(cfg.out) as stream:
        emitter = RowEmitter(stream, BASE_COLUMNS, cfg.format)
        statuses = []
        for row in _map_tasks(tasks, cfg.jobs):
            emitter.write(row)
            statuses.append(row["status"])
        return _aggregate_exit(statuses)


def _series_fit(rows) -> tuple:
    points = [(row["N"], row["eec"]) for row in rows
              if row["status"] == STATUS_OK and row["eec"] != "" and row["eec"] > 1e-13]
    if len(points) < 3:
        return "", ""
    slope, _, residual = log_linear_fit(*zip(*points))
    return slope, residual


def cmd_phase_grid(cfg: RunConfig) -> int:
    _require_sizes(cfg, "phase-grid")
    w_values = _sweep_values(cfg.wSweep) if cfg.wSweep else [cfg.w]
    mu_values = _sweep_values(cfg.muSweep) if cfg.muSweep else [cfg.mu]
    points = [(w, mu) for w in w_values for mu in mu_values]
    tasks = [_task_from_config(cfg, N=n, w=w, mu=mu)
             for (w, mu) in points for n in cfg.sizes]
    per_point = len(cfg.sizes)
    with _open_out(cfg.out) as stream:
        emitter = RowEmitter(stream, PHASE_COLUMNS, cfg.format)
        statuses = []
        buffer = []
        for row in _map_tasks(tasks, cfg.jobs):
            buffer.append(row)
            if len(buffer) == per_point:
                slope, residual = _series_fit(buffer)
                for r in buffer:
                    r["fitSlope"] = slope
                    r["fitResidual"] = residual
                    r["boundaryMu"] = 2.0 * r["w"]
                    emitter.write(r)
                    statuses.append(r["status"])
                buffer = []
        return _aggregate_exit(statuses)


def cmd_bench(cfg: RunConfig) -> int:
    """Three timed solves per size; failed sizes get no median and stay out of the slope fit."""
    if not cfg.sizes:
        raise _UsageError("bench needs a nonempty sizes list")
    with _open_out(cfg.out) as stream:
        emitter = RowEmitter(stream, BENCH_COLUMNS, cfg.format)
        rows = []
        statuses = []
        fit_sizes = []
        fit_medians = []
        for n in cfg.sizes:
            task = _task_from_config(cfg, N=n)
            runs = [_solve_task(task) for _ in range(3)]
            row = {key: task[key] for key in _POINT_COLUMNS}
            row["runsSeconds"] = ";".join(repr(float(r["runtimeSeconds"])) for r in runs)
            row["medianSeconds"] = ""
            row["logLogSlope"] = ""
            statuses.extend(r["status"] for r in runs)
            if all(r["status"] == STATUS_OK for r in runs):
                row["medianSeconds"] = statistics.median(r["runtimeSeconds"] for r in runs)
                fit_sizes.append(n)
                fit_medians.append(row["medianSeconds"])
            rows.append(row)
        if len(fit_sizes) >= 2:
            slope = np.polyfit(np.log(np.asarray(fit_sizes, dtype=float)),
                               np.log(np.maximum(fit_medians, 1e-9)), 1)[0]
            rows[-1]["logLogSlope"] = float(slope)
        for row in rows:
            emitter.write(row)
        return _aggregate_exit(statuses)


# ---------------------------------------------------------------- validate
# Oracle cross-checks returning (passed, detail), registered in CHECKS: `nessfold
# validate` runs them all, the acceptance tests call them for criteria 1-5 and 7.

_INJECT_BATHS = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)


def _pipeline_vec(params: KitaevParams, bath_params: EndBathParams) -> np.ndarray:
    sol = solve_end_bath(params, bath_params)
    return sol.state.z0 * dense_coefficients(sol.state)


def _check_analytic_n1() -> tuple:
    worst = 0.0
    for k in range(1, 9):
        gamma2 = 0.5 * k
        bp = EndBathParams(gamma11=1.0, gamma21=gamma2, gamma12=0.0, gamma22=0.0)
        vec = _pipeline_vec(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp)
        worst = max(worst, error_metric(vec, analytic_n1(1.0, gamma2)))
    return worst <= 1e-12, f"max rel err {worst:.3e} over 8 rates (tol 1e-12)"


def _check_second_space_oracle() -> tuple:
    worst = 0.0
    for n in (2, 3):
        for w, mu in _FIG1_POINTS:
            params = KitaevParams(N=n, w=w, mu=mu, delta=1.0)
            vec = _pipeline_vec(params, _FIG1_BATHS)
            ref = dense_second_space_ness(build_kitaev(params), end_baths(n, _FIG1_BATHS)).vec
            worst = max(worst, error_metric(vec, ref))
    return worst <= 1e-10, f"max rel err {worst:.3e} over 36 points (tol 1e-10)"


def _check_cross_oracle() -> tuple:
    worst = 0.0
    for n in (2, 3):
        for w, mu in _FIG1_POINTS:
            params = KitaevParams(N=n, w=w, mu=mu, delta=1.0)
            channels = end_baths(n, _FIG1_BATHS)
            first = rho_to_second_space(dense_first_space_ness(params, channels).rho)
            second = dense_second_space_ness(build_kitaev(params), channels).vec
            worst = max(worst, error_metric(first, second))
    return worst <= 1e-10, f"max rel err {worst:.3e} over 36 points (tol 1e-10)"


def _check_decay_profile() -> tuple:
    odd_max = 0.0
    for n in (3, 5, 7):
        sol = solve_end_bath(KitaevParams(N=n, w=0.0, mu=4.0, delta=1.0), _INJECT_BATHS)
        odd_max = max(odd_max, sol.report.eec)
    evens = []
    for n in (4, 6, 8, 10):
        sol = solve_end_bath(KitaevParams(N=n, w=0.0, mu=4.0, delta=1.0), _INJECT_BATHS)
        evens.append(sol.report.eec)
    decreasing = all(a > b for a, b in zip(evens, evens[1:]))
    _, _, residual = log_linear_fit([4, 6, 8, 10], evens)

    params5 = KitaevParams(N=5, w=0.0, mu=4.0, delta=1.0)
    sol5 = solve_end_bath(params5, _INJECT_BATHS)
    ref = dense_second_space_ness(build_kitaev(params5), end_baths(5, _INJECT_BATHS)).vec
    occ_err = max(abs(sol5.report.occupancy[j - 1] - occupancy_from_vec(ref, 5, j))
                  for j in (1, 5))
    occ_min = min(sol5.report.occupancy[0], sol5.report.occupancy[4])
    ok = (odd_max <= 1e-10 and decreasing and residual <= 0.10
          and occ_err <= 1e-8 and occ_min > 0.99)
    return ok, (f"odd max {odd_max:.3e}, even decreasing {decreasing}, "
                f"fit residual {residual:.3f}, end occupancy err {occ_err:.3e}")


def _check_degeneracy(sizes=(4, 8)) -> tuple:
    for n in sizes:
        try:
            solve_end_bath(KitaevParams(N=n, w=1.0, mu=0.0, delta=1.0), _INJECT_BATHS)
            return False, f"N={n} at w=1, mu=0 did not report a degeneracy"
        except NonUniqueNess:
            continue
    return True, f"w=1, mu=0 flagged non-unique at {' and '.join(f'N={n}' for n in sizes)}"


def _check_dense_equivalence() -> tuple:
    params = KitaevParams(N=4, w=1.5, mu=1.0, delta=1.0)
    vec = _pipeline_vec(params, _INJECT_BATHS)
    ref = dense_second_space_ness(build_kitaev(params), end_baths(4, _INJECT_BATHS)).vec
    err = error_metric(vec, ref)
    return err <= 1e-9, f"rel err {err:.3e} at N=4 (tol 1e-9)"


CHECKS = {
    "analytic_single_site": _check_analytic_n1,
    "second_space_oracle": _check_second_space_oracle,
    "cross_oracle": _check_cross_oracle,
    "decay_profile": _check_decay_profile,
    "degeneracy_detection": _check_degeneracy,
    "dense_equivalence": _check_dense_equivalence,
}


def cmd_validate(cfg: RunConfig) -> int:
    with _open_out(cfg.out) as stream:
        failures = 0
        for name, fn in CHECKS.items():
            t0 = time.perf_counter()
            try:
                ok, detail = fn()
            except NessfoldError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            failures += 0 if ok else 1
            stream.write(f"{'PASS' if ok else 'FAIL'}  {name:<22} {detail}  [{dt:.1f}s]\n")
            stream.flush()
        stream.write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed\n")
        return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------- parser


def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its keys")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    sp.add_argument("--jobs", type=int, help="concurrent parameter points (default 1)")
    sp.add_argument("--trunc-tol", type=float, dest="trunc_tol",
                    help="relative singular-value cutoff (default 1e-12)")
    sp.add_argument("--max-chi", type=int, dest="max_chi",
                    help="bond dimension cap, 0 = unlimited (default 0)")
    sp.add_argument("--eps-z", type=float, dest="eps_z",
                    help="relative dead-mode threshold (default 1e-8)")
    sp.add_argument("--eps-fold", type=float, dest="eps_fold",
                    help="closure tolerance (default 1e-10)")


def _add_point(sp) -> None:
    sp.add_argument("--N", type=int, help="chain length (default 2)")
    sp.add_argument("--w", type=float, help="hopping intensity (default 1)")
    sp.add_argument("--mu", type=float, help="chemical potential (default 1)")
    sp.add_argument("--delta", type=float, help="pairing intensity (default 1)")
    sp.add_argument("--gamma11", type=float, help="left annihilation rate (default 0)")
    sp.add_argument("--gamma21", type=float, help="left creation rate (default 1)")
    sp.add_argument("--gamma12", type=float, help="right annihilation rate (default 0)")
    sp.add_argument("--gamma22", type=float, help="right creation rate (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nessfold",
                     description="Stationary states of dissipative quadratic chains "
                                 "by next-neighbor rotation folding.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("ness", "solve one parameter point"),
                       ("occupancy", "solve one point and report the site profile")):
        p = sub.add_parser(name, help=text)
        _add_point(p)
        _add_common(p)
        p.add_argument("--dump-fold", dest="dump_fold",
                       help="write rotation/diagnostic JSON to this path")

    p = sub.add_parser("sweep-size", help="correlation vs chain length")
    _add_point(p)
    _add_common(p)
    p.add_argument("--sizes", type=_parse_sizes, help="comma-separated chain lengths")

    p = sub.add_parser("phase-grid", help="size sweeps over a (w, mu) grid")
    _add_point(p)
    _add_common(p)
    p.add_argument("--sizes", type=_parse_sizes, help="comma-separated chain lengths")
    p.add_argument("--w-range", type=_parse_range, dest="w_range",
                   help="hopping sweep start:stop:step")
    p.add_argument("--mu-range", type=_parse_range, dest="mu_range",
                   help="potential sweep start:stop:step")

    p = sub.add_parser("validate", help="run the oracle cross-check suite")
    _add_common(p)

    p = sub.add_parser("bench", help="median runtime per chain length (3 runs each)")
    _add_point(p)
    _add_common(p)
    p.add_argument("--sizes", type=_parse_sizes, help="comma-separated chain lengths")

    return parser


_COMMANDS = {
    "ness": partial(cmd_point, command="ness"),
    "occupancy": partial(cmd_point, command="occupancy"),
    "sweep-size": cmd_sweep_size,
    "phase-grid": cmd_phase_grid,
    "validate": cmd_validate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig()
    try:
        if getattr(args, "config", None):
            cfg.load_file(args.config)
        cfg.apply_flags(args)
        cfg.validate_common()
        return _COMMANDS[args.command](cfg)
    except (_UsageError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonUniqueNess as exc:
        print(f"{parser.prog}: degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NessfoldError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
