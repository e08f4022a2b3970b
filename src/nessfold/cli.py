"""Command-line experiment runner.

Subcommands cover single-point solves, size sweeps, phase grids, occupancy
profiles, an oracle validation suite and a timing benchmark; each takes exactly
the settings it reads, as flags and as config keys.  Output is CSV (RFC-4180,
one header row) or JSON lines, streamed row by row so long sweeps can be tailed.
The pipeline is seedless: the same config gives the same output, runtimes aside.

Exit codes: 0 success, 1 usage, 2 physical degeneracy (non-unique stationary
state), 3 numerical failure.  A solver failure does not abort a run: each
failure type becomes one row status, and the run exits with the worst code
over its rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

import numpy as np

from .exceptions import (
    ClosureViolation,
    NessfoldError,
    NonUniqueNess,
    SingularEigenbasis,
    UnphysicalReadout,
    VacuumVanishes,
)
from .folding import EPS_FOLD_DEFAULT
from .model import EndBathParams, KitaevParams, build_kitaev, end_baths
from .observables import log_linear_fit
from .pipeline import check_settings, solve_end_bath
from .spectral import EPS_Z_DEFAULT
from .tns import TRUNC_TOL_DEFAULT, dense_coefficients

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3

STATUS_OK = "ok"

# One row per row status: the solver failure that gives it and its exit code.
# Exit codes rank numerical > degenerate > ok.
_FAILURES = (
    (NonUniqueNess, "non_unique", EXIT_DEGENERATE),
    (SingularEigenbasis, "singular_eigenbasis", EXIT_NUMERICAL),
    (ClosureViolation, "closure_violation", EXIT_NUMERICAL),
    (VacuumVanishes, "vacuum_vanishes", EXIT_NUMERICAL),
    (UnphysicalReadout, "unphysical_readout", EXIT_NUMERICAL),
)
_STATUS_OF = {kind: status for kind, status, _ in _FAILURES}
_STATUS_EXIT = {STATUS_OK: EXIT_OK, **{status: code for _, status, code in _FAILURES}}


BASE_COLUMNS = [
    "N", "w", "mu", "delta",
    "gamma11", "gamma21", "gamma12", "gamma22",
    "eec", "occupancy", "maxBond", "foldResidual", "orthoResidual",
    "runtimeSeconds", "status",
]
PHASE_COLUMNS = BASE_COLUMNS + ["fitSlope", "fitResidual", "boundaryMu"]
_POINT_COLUMNS = BASE_COLUMNS[:8]
BENCH_COLUMNS = _POINT_COLUMNS + ["runsSeconds", "medianSeconds", "logLogSlope", "status"]

_FIG1_BATHS = EndBathParams(gamma11=1.3, gamma21=2.2, gamma12=3.4, gamma22=4.1)
_FIG1_PARAMS = [KitaevParams(N=n, w=w, mu=mu, delta=1.0) for n in (2, 3) for w, mu in
                 [(0.5 * k, 1.0) for k in range(9)] + [(1.5, 0.5 * k) for k in range(9)]]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2 for physics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- config


def integer(value) -> int:
    """int() that refuses to truncate or to read a bool: 3 and 3.0 pass, 2.7 and true do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def number(value) -> float:
    """float() that refuses a bool, which JSON would otherwise read as 0 or 1, and nan or +-inf."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got bool")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def string(value) -> str:
    """A string as it is; null, booleans and numbers are refused instead of spelled out."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def integer_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [integer(v) for v in value]


def sweep(value) -> list:
    """A sweep object {start, stop, step=1} as its inclusive grid; any other key is refused."""
    if not {"start", "stop"} <= set(value) <= {"start", "stop", "step"}:
        raise ValueError("a sweep holds start, stop and an optional step, and nothing else")
    start, stop, step = (number(value.get(key, 1.0)) for key in ("start", "stop", "step"))
    if step <= 0:
        raise ValueError("sweep step must be positive")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    if n < 1:
        raise ValueError("sweep stop lies before start")
    return [round(start + k * step, 12) for k in range(n)]


def _parse_range(text: str) -> dict:
    """start:stop:step as a sweep object; the sweep cast checks the bounds."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must look like start:stop:step")
    return dict(zip(("start", "stop", "step"), parts))


def _parse_sizes(text: str) -> list:
    """Comma-separated sizes as a list; integer_list checks the entries."""
    sizes = [p for p in text.split(",") if p]
    if not sizes:
        raise argparse.ArgumentTypeError("sizes list is empty")
    return sizes


class _Setting(NamedTuple):
    name: str  # config-file key, argparse dest and RunConfig attribute; flag --name-with-dashes
    cast: object  # applied to config values and to flag values alike
    default: object
    group: str  # which subcommands take the flag and the config key, see _COMMANDS
    help: str  # flag help; the default is appended by _flag_help
    parse: object = None  # argparse type, where the flag is spelled unlike the config value
    choices: tuple = None


# One row per setting.  The point and solver groups are also the keys of a solve task.
_SETTINGS = (
    _Setting("N", integer, 2, "point", "chain length"),
    _Setting("w", number, 1.0, "point", "hopping intensity"),
    _Setting("mu", number, 1.0, "point", "chemical potential"),
    _Setting("delta", number, 1.0, "point", "pairing intensity"),
    _Setting("gamma11", number, 0.0, "point", "left annihilation rate"),
    _Setting("gamma21", number, 1.0, "point", "left creation rate"),
    _Setting("gamma12", number, 0.0, "point", "right annihilation rate"),
    _Setting("gamma22", number, 1.0, "point", "right creation rate"),
    _Setting("out", string, "-", "out", "output path"),
    _Setting("format", string, "csv", "format", "output format", choices=("csv", "json")),
    _Setting("jobs", integer, 1, "jobs", "concurrent parameter points"),
    _Setting("trunc_tol", number, TRUNC_TOL_DEFAULT, "solver", "relative singular-value cutoff"),
    _Setting("max_chi", integer, 0, "solver", "bond dimension cap, 0 = unlimited"),
    _Setting("eps_z", number, EPS_Z_DEFAULT, "solver", "relative dead-mode threshold"),
    _Setting("eps_fold", number, EPS_FOLD_DEFAULT, "solver", "closure tolerance"),
    _Setting("sizes", integer_list, (), "sizes", "comma-separated chain lengths",
             parse=_parse_sizes),
    _Setting("dump_fold", string, None, "dump", "write rotation/diagnostic JSON to this path"),
    # a config spells these as a w or mu sweep object, see RunConfig.load_file
    _Setting("w_range", sweep, None, "grid", "hopping sweep start:stop:step", parse=_parse_range),
    _Setting("mu_range", sweep, None, "grid", "potential sweep start:stop:step",
             parse=_parse_range),
)
_BY_NAME = {s.name: s for s in _SETTINGS}
_TASK_KEYS = tuple(s.name for s in _SETTINGS if s.group in ("point", "solver"))
_SOLVER_KEYS = tuple(s.name for s in _SETTINGS if s.group == "solver")  # solve_end_bath keywords


def _flag_help(s: _Setting) -> str:
    """The row's help with its default, spelled as on the command line ("-" is stdout)."""
    if s.default in (None, ()):
        return s.help
    shown = s.default if isinstance(s.default, str) else f"{s.default:g}".replace("e-0", "e-")
    return f"{s.help} (default {'stdout' if shown == '-' else shown})"


class RunConfig:
    """Flat run description: one attribute per _SETTINGS row."""

    def __init__(self):
        for s in _SETTINGS:
            setattr(self, s.name, s.default)

    def _set(self, name: str, value) -> None:
        s = _BY_NAME[name]
        try:
            value = s.cast(value)
        except (TypeError, ValueError, OverflowError) as exc:  # a sweep too long to count overflows
            raise _UsageError(f"bad value {value!r} for {name}: {exc}") from exc
        if s.choices and value not in s.choices:
            raise _UsageError(f"{name} must be {' or '.join(s.choices)}, got {value!r}")
        setattr(self, name, value)

    def load_file(self, path: str, command: str) -> None:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _UsageError(f"config {path} must hold a JSON object")
        for key, value in doc.items():
            if key in ("w", "mu") and isinstance(value, dict):  # a sweep object spells a range
                key += "_range"
            elif key not in _BY_NAME or _BY_NAME[key].group == "grid":
                raise _UsageError(f"unknown config key {key!r}")
            s = _BY_NAME[key]
            if s.group not in _COMMANDS[command][1]:
                *rest, last = [c for c, (_, groups, _) in _COMMANDS.items() if s.group in groups]
                takers = f"{', '.join(rest)} and {last} take" if rest else f"{last} takes"
                raise _UsageError(f"{command} takes no {key}; only {takers} it")
            # the casts also read flag text, so a number spelled as a string stops here
            inner = value.values() if type(value) is dict else value if type(value) is list else ()
            if s.cast is not string and any(isinstance(v, str) for v in (value, *inner)):
                raise _UsageError(f"bad value {value!r} for {key}: a number spelled as a string")
            self._set(key, value)

    def apply_flags(self, args: argparse.Namespace) -> None:
        for name in _BY_NAME:
            value = getattr(args, name, None)
            if value is not None:
                self._set(name, value)

    def validate_common(self, command: str) -> None:
        if self.jobs < 1:
            raise _UsageError("jobs must be >= 1")
        if "sizes" in _COMMANDS[command][1] and not self.sizes:
            raise _UsageError(f"{command} needs a nonempty sizes list")
        # the library's own checks decide what a valid point and solver setting are, before any output
        try:
            check_settings(self.trunc_tol, self.max_chi, self.eps_z, self.eps_fold)
            for n in (self.N, *self.sizes):
                KitaevParams(N=n, w=self.w, mu=self.mu, delta=self.delta)
            EndBathParams(gamma11=self.gamma11, gamma21=self.gamma21,
                          gamma12=self.gamma12, gamma22=self.gamma22)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------- workers


def _task_from_config(cfg: RunConfig, **overrides) -> dict:
    task = {name: getattr(cfg, name) for name in _TASK_KEYS}
    return {**task, "with_occupancy": False, "dump_fold": None, **overrides}


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
        sol = solve_end_bath(params, bath_params, **{k: task[k] for k in _SOLVER_KEYS})
        row["eec"] = sol.report.eec if params.N >= 2 else ""
        if task["with_occupancy"]:
            row["occupancy"] = ";".join(repr(float(v)) for v in sol.report.occupancy)
        if task["dump_fold"]:
            _dump_fold(sol, task["dump_fold"])
    except NessfoldError as exc:
        row["status"] = _STATUS_OF[type(exc)]  # a KeyError here is a failure type with no row
        # a refused readout still carries the finished fold and replay
        sol = getattr(exc, "solution", None)
    if sol is not None:
        row["maxBond"] = int(sol.state.maxBondSeen)
        row["foldResidual"] = sol.foldResult.residual
        row["orthoResidual"] = sol.orthoResidual
    row["runtimeSeconds"] = time.perf_counter() - t0
    return row


def _map_tasks(tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(_solve_task, tasks)
        return
    # fork starts every worker up front, so the pool never outnumbers the tasks
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(_solve_task, tasks)


def _dump_fold(sol, path: str) -> None:
    rots = sol.foldResult.rotations
    doc = {
        "rotations": [{"m": m, "theta": theta, "kind": kind} for m, theta, kind
                      in zip(rots.m.tolist(), rots.theta.tolist(), rots.kind.tolist())],
        "rDiag": [float(v) for v in sol.foldResult.rDiag],
        "signs": [int(v) for v in sol.foldResult.signs],
        "sites": [int(v) for v in sol.foldResult.sites],
        "foldResidual": float(sol.foldResult.residual),
        "orthoResidual": float(sol.orthoResidual),
        "bondDims": list(sol.state.bondDims),
        "modes": {"real": [float(v) for v in sol.spectrum.z.real],
                  "imag": [float(v) for v in sol.spectrum.z.imag]},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------- output


def _plain(value):
    """None for a blank cell, a Python number for a numpy scalar."""
    if value == "" or value is None:
        return None
    return value.item() if isinstance(value, np.generic) else value


@contextmanager
def _open_out(path: str):
    if path in (None, "", "-"):
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _write_rows(cfg: RunConfig, columns, rows) -> int:
    """Stream rows to cfg.out as CSV or JSON lines in column order, and return the worst
    exit code over their statuses; see _FAILURES for the ranking.

    rows may be lazy: a bad --out fails, and the CSV header goes out, before any solve.
    """
    code = EXIT_OK
    with _open_out(cfg.out) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        if cfg.format == "csv":
            writer.writerow(columns)
            stream.flush()
        for row in rows:
            values = [_plain(row.get(c, "")) for c in columns]
            if cfg.format == "csv":
                writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else str(v)
                                 for v in values])
            else:
                stream.write(json.dumps(dict(zip(columns, values))) + "\n")
            stream.flush()
            code = max(code, _STATUS_EXIT[row["status"]])
    return code


# ---------------------------------------------------------------- commands


def _probe_writable(path: str) -> None:
    """Open path for writing as the dump will, and leave it as found; OSError if it cannot be."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def cmd_point(cfg: RunConfig, command: str) -> int:
    """`ness` and `occupancy`: one parameter point, one row; occupancy adds the site profile."""
    if cfg.dump_fold:
        _probe_writable(cfg.dump_fold)  # a bad path fails before the header and the solve
    task = _task_from_config(cfg, with_occupancy=command == "occupancy", dump_fold=cfg.dump_fold)
    return _write_rows(cfg, BASE_COLUMNS, map(_solve_task, [task]))


def _require_sizes(cfg: RunConfig) -> None:
    if min(cfg.sizes) < 2:
        raise _UsageError("correlation sweeps need sizes >= 2")


def cmd_sweep_size(cfg: RunConfig) -> int:
    _require_sizes(cfg)
    tasks = [_task_from_config(cfg, N=n) for n in cfg.sizes]
    return _write_rows(cfg, BASE_COLUMNS, _map_tasks(tasks, cfg.jobs))


def _series_fit(rows) -> tuple:
    points = [(row["N"], row["eec"]) for row in rows
              if row["status"] == STATUS_OK and row["eec"] != "" and row["eec"] > 1e-13]
    if len(points) < 3:
        return "", ""
    slope, _, residual = log_linear_fit(*zip(*points))
    return slope, residual


def _with_fits(rows, per_point: int):
    """Hold back each (w, mu) point's size series until it is complete, then add its fit."""
    for series in zip(*[iter(rows)] * per_point):  # consecutive blocks of per_point rows
        slope, residual = _series_fit(series)
        for r in series:
            r.update(fitSlope=slope, fitResidual=residual, boundaryMu=2.0 * r["w"])
        yield from series


def cmd_phase_grid(cfg: RunConfig) -> int:
    _require_sizes(cfg)
    tasks = [_task_from_config(cfg, N=n, w=w, mu=mu) for w in cfg.w_range or [cfg.w]
             for mu in cfg.mu_range or [cfg.mu] for n in cfg.sizes]
    rows = _with_fits(_map_tasks(tasks, cfg.jobs), len(cfg.sizes))
    return _write_rows(cfg, PHASE_COLUMNS, rows)


def _bench_rows(cfg: RunConfig):
    """Three timed solves per size; a size with a failed solve gets no median, stays out of
    the slope fit and carries the worst of its three statuses into the exit code."""
    rows = []
    for n in cfg.sizes:
        task = _task_from_config(cfg, N=n)
        runs = [_solve_task(task) for _ in range(3)]
        row = {key: task[key] for key in _POINT_COLUMNS}
        row.update(runsSeconds=";".join(repr(float(r["runtimeSeconds"])) for r in runs),
                   status=max((r["status"] for r in runs), key=_STATUS_EXIT.get),
                   medianSeconds="", logLogSlope="")
        if row["status"] == STATUS_OK:
            row["medianSeconds"] = statistics.median(r["runtimeSeconds"] for r in runs)
        rows.append(row)
    timed = np.array([(row["N"], row["medianSeconds"]) for row in rows
                      if row["status"] == STATUS_OK], dtype=float)
    if len(timed) >= 2:
        slope = np.polyfit(np.log(timed[:, 0]), np.log(np.maximum(timed[:, 1], 1e-9)), 1)[0]
        rows[-1]["logLogSlope"] = float(slope)
    yield from rows


def cmd_bench(cfg: RunConfig) -> int:
    return _write_rows(cfg, BENCH_COLUMNS, _bench_rows(cfg))


# ---------------------------------------------------------------- validate
# Oracle cross-checks returning (passed, detail), registered in CHECKS: `nessfold
# validate` runs them all, the acceptance tests call them for criteria 1-5 and 7.
# Each check imports the oracle itself, so the solve commands never load scipy.

_INJECT_BATHS = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)


def _pipeline_vec(params: KitaevParams, bath_params: EndBathParams) -> np.ndarray:
    sol = solve_end_bath(params, bath_params)
    return sol.state.z0 * dense_coefficients(sol.state)


def _check_analytic_n1() -> tuple:
    from .oracle import analytic_n1, error_metric

    worst = 0.0
    for k in range(1, 9):
        gamma2 = 0.5 * k
        bp = EndBathParams(gamma11=1.0, gamma21=gamma2, gamma12=0.0, gamma22=0.0)
        vec = _pipeline_vec(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp)
        worst = max(worst, error_metric(vec, analytic_n1(1.0, gamma2)))
    return worst <= 1e-12, f"max rel err {worst:.3e} over 8 rates (tol 1e-12)"


def _second_space_error(params: KitaevParams, bath_params: EndBathParams) -> float:
    """Error of the pipeline's vector against the dense second-space stationary state."""
    from .oracle import dense_second_space_ness, error_metric

    ref = dense_second_space_ness(build_kitaev(params), end_baths(params.N, bath_params)).vec
    return error_metric(_pipeline_vec(params, bath_params), ref)


def _check_second_space_oracle() -> tuple:
    worst = max(_second_space_error(params, _FIG1_BATHS) for params in _FIG1_PARAMS)
    return worst <= 1e-10, f"max rel err {worst:.3e} over 36 points (tol 1e-10)"


def _check_cross_oracle() -> tuple:
    from .oracle import (dense_first_space_ness, dense_second_space_ness, error_metric,
                         rho_to_second_space)

    worst = 0.0
    for params in _FIG1_PARAMS:
        channels = end_baths(params.N, _FIG1_BATHS)
        first = rho_to_second_space(dense_first_space_ness(params, channels).rho)
        second = dense_second_space_ness(build_kitaev(params), channels).vec
        worst = max(worst, error_metric(first, second))
    return worst <= 1e-10, f"max rel err {worst:.3e} over 36 points (tol 1e-10)"


def _check_decay_profile() -> tuple:
    from .oracle import dense_second_space_ness, occupancy_from_vec

    def eec(n):
        return solve_end_bath(KitaevParams(N=n, w=0.0, mu=4.0, delta=1.0), _INJECT_BATHS).report.eec

    odd_max = max(0.0, *(eec(n) for n in (3, 5, 7)))
    evens = [eec(n) for n in (4, 6, 8, 10)]
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
    err = _second_space_error(KitaevParams(N=4, w=1.5, mu=1.0, delta=1.0), _INJECT_BATHS)
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


# Per subcommand: its help, the _SETTINGS groups it takes as flags and config keys, its function.
_POINT_OUT = ("point", "out", "format")
_SIZE_SWEEP = _POINT_OUT + ("jobs", "solver", "sizes")
_COMMANDS = {
    "ness": ("solve one parameter point", _POINT_OUT + ("solver", "dump"),
             partial(cmd_point, command="ness")),
    "occupancy": ("solve one point and report the site profile", _POINT_OUT + ("solver", "dump"),
                  partial(cmd_point, command="occupancy")),
    "sweep-size": ("correlation vs chain length", _SIZE_SWEEP, cmd_sweep_size),
    "phase-grid": ("size sweeps over a (w, mu) grid", _SIZE_SWEEP + ("grid",), cmd_phase_grid),
    "validate": ("run the oracle cross-check suite", ("out",), cmd_validate),
    "bench": ("median runtime per chain length (3 runs each)", _POINT_OUT + ("solver", "sizes"),
              cmd_bench),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nessfold",
                     description="Stationary states of dissipative quadratic chains "
                                 "by next-neighbor rotation folding.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, groups, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for group in groups:
            if group == "out":  # --config heads the output flags, where --help has always shown it
                p.add_argument("--config", help="JSON config file; flags override its keys")
            for s in _SETTINGS:
                if s.group == group:
                    p.add_argument("--" + s.name.replace("_", "-"), type=s.parse or s.cast,
                                   choices=s.choices, help=_flag_help(s))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig()
    try:
        if args.config:
            cfg.load_file(args.config, args.command)
        cfg.apply_flags(args)
        cfg.validate_common(args.command)
        return _COMMANDS[args.command][2](cfg)
    except (_UsageError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
