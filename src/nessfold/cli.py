"""Command-line experiment runner.

Subcommands cover single-point solves, size sweeps, phase grids, occupancy
profiles, a check of the solver against its own covariance and a timing
benchmark; each takes exactly the settings it reads, as flags and as config keys.
Every solving subcommand lists, solves, derives and writes its rows in cmd_solve.
Output is CSV (RFC-4180, one header row) or JSON lines, streamed row by row so
long sweeps can be tailed.  The pipeline is seedless: the same config gives the
same output, runtimes aside.

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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import chain, islice
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
from .model import EndBathParams, KitaevParams
from .pipeline import check_settings, log_linear_fit, solve_end_bath
from .spectral import EPS_Z_DEFAULT, gaussian_report
from .tns import TRUNC_TOL_DEFAULT, covariance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3

STATUS_OK = "ok"

# The most solves one run may list; a longer sweep or grid is refused before it is built.
MAX_SOLVES = 10**6
BENCH_RUNS = 3  # bench times each of its points this many times, and counts each run as a solve
POOL_WINDOW = 2000  # tasks a --jobs pool holds ahead of the row being written, about 1 MB at any --jobs

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
    """A list of distinct integers, from a config list or comma-separated flag text."""
    if isinstance(value, str):
        value = value.split(",")
        if not any(value):
            raise ValueError("sizes list is empty")
        if not all(value):
            raise ValueError("sizes list has an empty item")
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    value = [integer(v) for v in value]
    if len(set(value)) < len(value):  # a size series fits one point per chain length
        raise ValueError("a chain length is listed twice")
    return value


def sweep(value) -> list:
    """A sweep object {start, stop, step=1}, or start:stop:step flag text, as its inclusive
    grid; any other key is refused."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError("range must look like start:stop:step")
        value = dict(zip(("start", "stop", "step"), parts))
    if not {"start", "stop"} <= set(value) <= {"start", "stop", "step"}:
        raise ValueError("a sweep holds start, stop and an optional step, and nothing else")
    start, stop, step = (number(value.get(key, 1.0)) for key in ("start", "stop", "step"))
    if step <= 0:
        raise ValueError("sweep step must be positive")
    span = (stop - start) / step + 1e-9  # counted as a float, so an endless sweep is never listed
    if span < 0:
        raise ValueError("sweep stop lies before start")
    if span >= MAX_SOLVES:
        raise ValueError(f"sweep holds more than {MAX_SOLVES} values")
    grid = [round(start + k * step, 12) for k in range(math.floor(span) + 1)]
    if len(set(grid)) < len(grid):  # each value is a point of the grid, so none may repeat
        raise ValueError("sweep step is too small: a value repeats at the 12 decimals kept")
    return grid


class _Setting(NamedTuple):
    name: str  # config-file key, argparse dest and RunConfig attribute; flag --name-with-dashes
    cast: object  # RunConfig._set applies it to config values and to flag text alike
    default: object
    commands: tuple  # the subcommands that take the flag and the config key, in _COMMANDS order
    help: str  # flag help; the default is appended by _flag_help
    choices: tuple = None


# The subcommands in _COMMANDS order, and those that solve: every one but validate.
_ALL = ("ness", "occupancy", "sweep-size", "phase-grid", "validate", "bench")
_SOLVES = tuple(c for c in _ALL if c != "validate")

# One row per setting, in the order of each subcommand's flags.
_SETTINGS = (
    _Setting("N", integer, 2, ("ness", "occupancy"), "chain length"),
    _Setting("w", number, 1.0, _SOLVES, "hopping intensity"),
    _Setting("mu", number, 1.0, _SOLVES, "chemical potential"),
    _Setting("delta", number, 1.0, _SOLVES, "pairing intensity"),
    _Setting("gamma11", number, 0.0, _SOLVES, "left annihilation rate"),
    _Setting("gamma21", number, 1.0, _SOLVES, "left creation rate"),
    _Setting("gamma12", number, 0.0, _SOLVES, "right annihilation rate"),
    _Setting("gamma22", number, 1.0, _SOLVES, "right creation rate"),
    _Setting("out", string, "-", _ALL, "output path"),
    _Setting("format", string, "csv", _SOLVES, "output format", choices=("csv", "json")),
    _Setting("jobs", integer, 1, ("sweep-size", "phase-grid"), "concurrent parameter points"),
    _Setting("trunc_tol", number, TRUNC_TOL_DEFAULT, _SOLVES, "relative singular-value cutoff"),
    _Setting("max_chi", integer, 0, _SOLVES, "bond dimension cap, 0 = unlimited"),
    _Setting("eps_z", number, EPS_Z_DEFAULT, _SOLVES, "relative dead-mode threshold"),
    _Setting("eps_fold", number, EPS_FOLD_DEFAULT, _SOLVES, "closure tolerance"),
    _Setting("sizes", integer_list, (), ("sweep-size", "phase-grid", "bench"), "comma-separated chain lengths"),
    _Setting("dump_fold", string, None, ("ness", "occupancy"), "write rotation/diagnostic JSON to this path"),
    # a config spells these as a w or mu sweep object, see RunConfig.load_file
    _Setting("w_range", sweep, None, ("phase-grid",), "hopping sweep start:stop:step"),
    _Setting("mu_range", sweep, None, ("phase-grid",), "potential sweep start:stop:step"),
)
_BY_NAME = {s.name: s for s in _SETTINGS}
_SOLVER_KEYS = ("trunc_tol", "max_chi", "eps_z", "eps_fold")  # solve_end_bath keywords


def _flag_help(s: _Setting) -> str:
    """The row's help with its default, spelled as on the command line ("-" is stdout)."""
    if s.default in (None, ()):
        return s.help
    shown = s.default if isinstance(s.default, str) else f"{s.default:g}".replace("e-0", "e-")
    return f"{s.help} (default {'stdout' if shown == '-' else shown})"


def _probe_writable(path: str) -> None:
    """Open path for writing as the dump will, and leave it as found; OSError if it cannot be."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


class RunConfig:
    """Flat run description: one attribute per _SETTINGS row."""

    def __init__(self):
        for s in _SETTINGS:
            setattr(self, s.name, s.default)

    def _set(self, name: str, value, spelled: str | None = None) -> None:
        """Cast and store one setting; errors name it as its input spelled it, by default name."""
        s, spelled = _BY_NAME[name], spelled or name
        try:
            value = s.cast(value)
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge config integer overflows
            raise _UsageError(f"bad value {value!r} for {spelled}: {exc}") from exc
        if s.choices and value not in s.choices:
            raise _UsageError(f"{spelled} must be {' or '.join(s.choices)}, got {value!r}")
        setattr(self, name, value)

    def load_file(self, path: str, command: str) -> None:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 whatever the locale
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _UsageError(f"config {path} must hold a JSON object")
        for key, value in doc.items():
            name, spelled = key, key
            if key in ("w", "mu") and isinstance(value, dict):  # a sweep object spells a range
                name, spelled = key + "_range", key + " sweep"
            elif key not in _BY_NAME or key.endswith("_range"):
                raise _UsageError(f"unknown config key {key!r}")
            s = _BY_NAME[name]
            if command not in s.commands:
                *rest, last = s.commands
                takers = f"{', '.join(rest)} and {last} take" if rest else f"{last} takes"
                raise _UsageError(f"{command} takes no {spelled}; only {takers} it")
            # the casts also read flag text, so a number spelled as a string stops here
            inner = value.values() if type(value) is dict else value if type(value) is list else ()
            if s.cast is not string and any(isinstance(v, str) for v in (value, *inner)):
                raise _UsageError(f"bad value {value!r} for {spelled}: a number spelled as a string")
            self._set(name, value, spelled)

    def apply_flags(self, args: argparse.Namespace) -> None:
        """Cast and store each flag given; a bad value is refused as argparse refuses an
        unknown flag, with the subcommand's usage and the flag as typed.  A --w or --mu
        flag sets its axis to that one value, so it is refused beside the axis's range flag
        and replaces a config sweep."""
        for axis in ("w", "mu"):
            if getattr(args, axis, None) is not None and getattr(args, axis + "_range", None) is not None:
                args.subparser.error(f"--{axis} and --{axis}-range both set the {axis} axis; give one")
        for name in _BY_NAME:
            value = getattr(args, name, None)
            if value is not None:
                try:
                    self._set(name, value, "--" + name.replace("_", "-"))
                except _UsageError as exc:
                    args.subparser.error(str(exc))
                if name in ("w", "mu"):
                    setattr(self, name + "_range", None)

    def validate_common(self, command: str) -> None:
        if self.jobs < 1:
            raise _UsageError("jobs must be >= 1")
        if command in _BY_NAME["sizes"].commands and not self.sizes:
            raise _UsageError(f"{command} needs a nonempty sizes list")
        solves = (len(self.sizes or [self.N]) * len(self.w_range or [self.w]) * len(self.mu_range or [self.mu])
                  * _runs(command))
        if solves > MAX_SOLVES:
            raise _UsageError(f"the run lists {solves} solves; at most {MAX_SOLVES} are allowed")
        # the rows and the fold dump would overwrite each other on stdout or in one file (a hard link)
        out, dump = self.out or "-", self.dump_fold
        if dump and (out == dump == "-" or "-" not in (out, dump) and (
                os.path.realpath(out) == os.path.realpath(dump) or (os.path.exists(out)
                and os.path.exists(dump) and os.path.samefile(out, dump)))):
            raise _UsageError(f"--out {out} and --dump-fold {dump} name one file")
        # the library's own checks decide what a valid point and solver setting are, before any output
        try:
            check_settings(self.trunc_tol, self.max_chi, self.eps_z, self.eps_fold)
            for n in self.sizes or [self.N]:
                KitaevParams(N=n, w=self.w, mu=self.mu, delta=self.delta)
            EndBathParams(gamma11=self.gamma11, gamma21=self.gamma21,
                          gamma12=self.gamma12, gamma22=self.gamma22)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        if command in ("sweep-size", "phase-grid") and min(self.sizes) < 2:
            raise _UsageError("correlation sweeps need sizes >= 2")
        if dump and dump != "-":
            _probe_writable(dump)  # a bad path fails before the header and the solve


# ---------------------------------------------------------------- workers


def _runs(command: str) -> int:
    """How many times a run solves each of its points."""
    return BENCH_RUNS if command == "bench" else 1


def _tasks(cfg: RunConfig, command: str):
    """The run's solves, each task built just before it is solved: w, then mu, then N
    fastest, each _runs(command) times.  The only place a run's solves are listed."""
    fixed = {name: getattr(cfg, name) for name in _POINT_COLUMNS[3:] + list(_SOLVER_KEYS)}
    fixed.update(with_occupancy=command == "occupancy", dump_fold=cfg.dump_fold)
    for w in cfg.w_range or [cfg.w]:
        for mu in cfg.mu_range or [cfg.mu]:
            for n in cfg.sizes or [cfg.N]:
                yield from [{"N": n, "w": w, "mu": mu, **fixed}] * _runs(command)


def _solve_task(task: dict) -> dict:
    """Run one parameter point; must stay module-level and picklable."""
    t0 = time.perf_counter()
    row = {key: task[key] for key in _POINT_COLUMNS}
    row["status"] = STATUS_OK
    params = KitaevParams(**{key: task[key] for key in _POINT_COLUMNS[:4]})
    bath_params = EndBathParams(**{key: task[key] for key in _POINT_COLUMNS[4:]})
    try:
        sol = solve_end_bath(params, bath_params, **{k: task[k] for k in _SOLVER_KEYS})
    except NessfoldError as exc:
        row["status"] = _STATUS_OF[type(exc)]  # a KeyError here is a failure type with no row
        # a vanishing vacuum or a refused readout still carries the finished fold and replay
        sol = exc.solution
    if sol is not None:
        row["maxBond"] = int(sol.state.maxBondSeen)
        row["foldResidual"] = sol.foldResult.residual
        row["orthoResidual"] = sol.orthoResidual
        if sol.report is not None and params.N >= 2:
            row["eec"] = sol.report.eec
        if sol.report is not None and task["with_occupancy"]:
            row["occupancy"] = ";".join(repr(float(v)) for v in sol.report.occupancy)
        if task["dump_fold"]:
            _dump_fold(sol, task["dump_fold"])
    row["runtimeSeconds"] = time.perf_counter() - t0
    return row


def _map_tasks(tasks, jobs: int):
    """The tasks' rows in task order.  A pool of at most jobs workers, and no more than the CPUs
    or the tasks, is fed one task per row out, POOL_WINDOW tasks ahead; with one worker the tasks
    are solved here.  When the reader stops or a solve raises, the queued tasks are dropped: only
    the solves already running finish."""
    tasks = iter(tasks)
    workers = min(jobs, os.cpu_count() or 1)
    head = list(islice(tasks, POOL_WINDOW)) if workers > 1 else []
    if len(head) <= 1:
        yield from map(_solve_task, chain(head, tasks))
        return
    # fork starts every worker up front, so the pool never outnumbers the tasks
    pool = ProcessPoolExecutor(max_workers=min(workers, len(head)))
    try:
        futures = deque(pool.submit(_solve_task, task) for task in head)
        for task in tasks:
            futures.append(pool.submit(_solve_task, task))
            yield futures.popleft().result()
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _dump_fold(sol, path: str) -> None:
    doc = {
        "rotations": [{"m": m, "theta": theta, "kind": kind}
                      for m, theta, kind in sol.foldResult.rotations.tolist()],
        "rDiag": [float(v) for v in sol.foldResult.rDiag],
        "signs": [int(v) for v in sol.foldResult.signs],
        "sites": [int(v) for v in sol.foldResult.sites],
        "foldResidual": float(sol.foldResult.residual),
        "orthoResidual": float(sol.orthoResidual),
        "bondDims": list(sol.state.bondDims),
        "modes": {"real": [float(v) for v in sol.spectrum.z.real],
                  "imag": [float(v) for v in sol.spectrum.z.imag]},
    }
    with _open_out(path) as stream:  # "-" is stdout, as for --out
        print(json.dumps(doc, indent=1), file=stream, flush=True)


# ---------------------------------------------------------------- output


@contextmanager
def _open_out(path: str):
    """The output stream, stdout for no path or "-".  A reader that leaves early, as `| head`
    does, ends the output quietly: what is still buffered, and the interpreter's final flush,
    go to the null device, and the run exits as the rows already written say."""
    with nullcontext(sys.stdout) if path in (None, "", "-") else open(path, "w", newline="") as stream:
        try:
            yield stream
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


def _write_rows(cfg: RunConfig, columns, rows) -> int:
    """Stream rows to cfg.out as CSV or JSON lines in column order, a column a row lacks
    blank, and return the worst exit code over their statuses; see _FAILURES for the ranking.
    A non-finite float is blank too, as strict JSON has no inf or nan.

    rows may be lazy: a bad --out fails, and the CSV header goes out, before any solve.
    """
    code = EXIT_OK
    with _open_out(cfg.out) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        if cfg.format == "csv":
            writer.writerow(columns)
            stream.flush()
        for row in rows:
            values = [None if isinstance(v, float) and not math.isfinite(v) else v
                      for v in map(row.get, columns)]
            if cfg.format == "csv":
                writer.writerow(values)
            else:
                stream.write(json.dumps(dict(zip(columns, values))) + "\n")
            stream.flush()
            code = max(code, _STATUS_EXIT[row["status"]])
    return code


# ---------------------------------------------------------------- commands


def cmd_solve(cfg: RunConfig, command: str, columns=BASE_COLUMNS, derive=lambda rows, cfg: rows) -> int:
    """Every subcommand that solves: list the run's solves, solve them, derive the rows to
    write from the solves' rows, and write those."""
    return _write_rows(cfg, columns, derive(_map_tasks(_tasks(cfg, command), cfg.jobs), cfg))


def _series_fit(rows) -> tuple:
    points = [(row["N"], row["eec"]) for row in rows
              if row["status"] == STATUS_OK and row["eec"] > 1e-13]
    if len(points) < 3:
        return None, None
    slope, _, residual = log_linear_fit(*zip(*points))
    return slope, residual


def _with_fits(rows, cfg: RunConfig):
    """Hold back each (w, mu) point's size series until it is complete, then add its fit."""
    for series in zip(*[iter(rows)] * len(cfg.sizes)):  # consecutive blocks of one series
        slope, residual = _series_fit(series)
        for r in series:
            r.update(fitSlope=slope, fitResidual=residual, boundaryMu=2.0 * abs(r["w"]))
        yield from series


def _bench_rows(rows, cfg: RunConfig):
    """One row per size from its BENCH_RUNS timed solves; a size with a failed solve gets no median,
    stays out of the slope fit and carries the worst of its statuses into the exit code."""
    out = []
    for runs in zip(*[iter(rows)] * BENCH_RUNS):
        row = {key: runs[0][key] for key in _POINT_COLUMNS}
        row.update(runsSeconds=";".join(repr(float(r["runtimeSeconds"])) for r in runs),
                   status=max((r["status"] for r in runs), key=_STATUS_EXIT.get))
        if row["status"] == STATUS_OK:
            row["medianSeconds"] = statistics.median(r["runtimeSeconds"] for r in runs)
        out.append(row)
    timed = np.array([(row["N"], row["medianSeconds"]) for row in out if "medianSeconds" in row])
    if len(timed) >= 2:
        out[-1]["logLogSlope"] = log_linear_fit(np.log(timed[:, 0]), np.maximum(timed[:, 1], 1e-9))[0]
    yield from out


# ---------------------------------------------------------------- validate
# Checks of the solver, returning (passed, detail), registered in CHECKS: `nessfold validate`
# runs them all, the acceptance tests call them for criteria 1, 2, 4, 5, 7.  The stationary
# state is Gaussian, so the covariance a row's readout is read from (tns.covariance) is checked
# against the solve's own, and the N=1 state against its closed form; the dense oracles are left
# to the tests, so validate never loads scipy.

_INJECT_BATHS = EndBathParams(gamma11=0.0, gamma21=1.0, gamma12=0.0, gamma22=1.0)


def _check_analytic_n1() -> tuple:
    """|00) + r|11) in the physical gauge, r = (gamma2 - gamma1)/(gamma2 + gamma1); |01) and |10)
    are zero by parity.  The vacuum entry is 1 by normalization, and r is the covariance entry (0, 1)."""
    worst = 0.0
    for k in range(1, 9):
        gamma2 = 0.5 * k
        bp = EndBathParams(gamma11=1.0, gamma21=gamma2, gamma12=0.0, gamma22=0.0)
        state = solve_end_bath(KitaevParams(N=1, w=0.0, mu=1.0, delta=0.0), bp).state
        r = (gamma2 - 1.0) / (gamma2 + 1.0)
        worst = max(worst, float(abs(covariance(state)[0, 1] - r) / np.hypot(1.0, r)))
    return worst <= 1e-12, f"max rel err {worst:.3e} over 8 rates (tol 1e-12)"


def _readout_error(params: KitaevParams, bath_params: EndBathParams) -> float:
    """Largest entry of |Gamma_MPS - Gamma|: the replayed state's covariance, which its row's
    readout is read from, against the solve's own."""
    sol = solve_end_bath(params, bath_params)
    return float(np.abs(covariance(sol.state) - sol.spectrum.gamma).max())


def _check_second_space_oracle() -> tuple:
    worst = max(_readout_error(params, _FIG1_BATHS) for params in _FIG1_PARAMS)
    return worst <= 1e-10, f"max abs err {worst:.3e} over 36 points (tol 1e-10)"


def _check_decay_profile() -> tuple:
    sols = {n: solve_end_bath(KitaevParams(N=n, w=0.0, mu=4.0, delta=1.0), _INJECT_BATHS)
            for n in range(3, 11)}
    odd_max = max(0.0, *(sols[n].report.eec for n in (3, 5, 7)))
    evens = [sols[n].report.eec for n in (4, 6, 8, 10)]
    decreasing = all(a > b for a, b in zip(evens, evens[1:]))
    _, _, residual = log_linear_fit([4, 6, 8, 10], evens)

    occupancy, ref = sols[5].report.occupancy, gaussian_report(sols[5].spectrum.gamma)[1]
    occ_err = max(abs(occupancy[j - 1] - ref[j - 1]) for j in (1, 5))
    occ_min = min(occupancy[0], occupancy[4])
    ok = (odd_max <= 1e-10 and decreasing and residual <= 0.10
          and occ_err <= 1e-8 and occ_min > 0.99)
    return ok, (f"odd max {odd_max:.3e}, even decreasing {decreasing}, "
                f"fit residual {residual:.3f}, end occupancy err {occ_err:.3e}")


_DEGENERATE_SIZES = (4, 8)


def _check_degeneracy() -> tuple:
    for n in _DEGENERATE_SIZES:
        try:
            solve_end_bath(KitaevParams(N=n, w=1.0, mu=0.0, delta=1.0), _INJECT_BATHS)
            return False, f"N={n} at w=1, mu=0 did not report a degeneracy"
        except NonUniqueNess:
            continue
    return True, f"w=1, mu=0 flagged non-unique at {' and '.join(f'N={n}' for n in _DEGENERATE_SIZES)}"


def _check_dense_equivalence() -> tuple:
    err = _readout_error(KitaevParams(N=4, w=1.5, mu=1.0, delta=1.0), _INJECT_BATHS)
    return err <= 1e-9, f"abs err {err:.3e} at N=4 (tol 1e-9)"


CHECKS = {
    "analytic_single_site": _check_analytic_n1,
    "second_space_oracle": _check_second_space_oracle,
    "decay_profile": _check_decay_profile,
    "degeneracy_detection": _check_degeneracy,
    "dense_equivalence": _check_dense_equivalence,
}


def cmd_validate(cfg: RunConfig) -> int:
    failures = 0
    with _open_out(cfg.out) as stream:
        for name, fn in CHECKS.items():
            t0 = time.perf_counter()
            try:
                ok, detail = fn()
            except NessfoldError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            stream.write(f"{'PASS' if ok else 'FAIL'}  {name:<22} {detail}  [{dt:.1f}s]\n")
            stream.flush()
            failures += 0 if ok else 1
        stream.write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed\n")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------- parser


# Per subcommand, in _ALL order: its help and its function.
_COMMANDS = {
    "ness": ("solve one parameter point", partial(cmd_solve, command="ness")),
    "occupancy": ("solve one point and report the site profile", partial(cmd_solve, command="occupancy")),
    "sweep-size": ("correlation vs chain length", partial(cmd_solve, command="sweep-size")),
    "phase-grid": ("size sweeps over a (w, mu) grid",
                   partial(cmd_solve, command="phase-grid", columns=PHASE_COLUMNS, derive=_with_fits)),
    "validate": ("check the solver against its own covariance", cmd_validate),
    "bench": (f"median runtime per chain length ({BENCH_RUNS} runs each)",
              partial(cmd_solve, command="bench", columns=BENCH_COLUMNS, derive=_bench_rows)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nessfold",
                     description="Stationary states of dissipative quadratic chains "
                                 "by next-neighbor rotation folding.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(subparser=p)  # main refuses a flag this subcommand lacks with its own usage
        for s in (s for s in _SETTINGS if command in s.commands):
            if s.name == "out":  # --config heads the output flags, where --help has always shown it
                p.add_argument("--config", help="JSON config file; flags override its keys")
            p.add_argument("--" + s.name.replace("_", "-"), choices=s.choices, help=_flag_help(s))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    cfg = RunConfig()
    try:
        if args.config:
            cfg.load_file(args.config, args.command)
        cfg.apply_flags(args)
        cfg.validate_common(args.command)
        return _COMMANDS[args.command][1](cfg)
    except (_UsageError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
