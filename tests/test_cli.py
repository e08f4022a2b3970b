"""Command-line runner: subcommands, formats, exit codes, determinism."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nessfold
from nessfold import cli
from nessfold.cli import (
    BASE_COLUMNS,
    BENCH_COLUMNS,
    EXIT_DEGENERATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    PHASE_COLUMNS,
    RunConfig,
    _solve_task,
    _write_rows,
    main,
    sweep,
)
from nessfold import exceptions
from nessfold.exceptions import NessfoldError, SingularEigenbasis, VacuumVanishes
from nessfold.pipeline import log_linear_fit

from helpers import blocks_from_records, run_cli


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def cells(header, row):
    return dict(zip(header, row))


def strip_runtime(text):
    header, rows = parse_csv(text)
    k = header.index("runtimeSeconds")
    return [tuple(c for i, c in enumerate(r) if i != k) for r in rows]


# ---------------------------------------------------------------- ness


def test_ness_default_point(capsys):
    code, out, err = run_cli(capsys, ["ness"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == BASE_COLUMNS
    assert len(rows) == 1
    row = cells(header, rows[0])
    assert row["status"] == "ok"
    assert row["N"] == "2"
    assert float(row["eec"]) > 0
    assert row["occupancy"] == ""
    assert float(row["foldResidual"]) < 1e-10
    assert float(row["runtimeSeconds"]) > 0


def test_ness_single_site_blank_eec(capsys):
    code, out, _ = run_cli(capsys, ["ness", "--N", "1"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = cells(header, rows[0])
    assert row["eec"] == ""
    assert row["status"] == "ok"


def test_ness_json_format(capsys):
    code, out, _ = run_cli(capsys, ["ness", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out.strip())
    assert doc["status"] == "ok"
    assert doc["N"] == 2
    assert doc["occupancy"] is None
    assert isinstance(doc["eec"], float)


def test_ness_degenerate_point(capsys):
    code, out, _ = run_cli(capsys, ["ness", "--N", "4", "--w", "1", "--mu", "0"])
    assert code == EXIT_DEGENERATE
    header, rows = parse_csv(out)
    row = cells(header, rows[0])
    assert row["status"] == "non_unique"
    assert row["eec"] == ""


def test_ness_numerical_failure_exit(capsys):
    # the fold tolerance sits above every genuine row weight at this point,
    # so the pivot check trips and maps to the numerical status family
    code, out, _ = run_cli(capsys, ["ness", "--eps-fold", "0.7"])
    assert code == EXIT_NUMERICAL
    header, rows = parse_csv(out)
    assert cells(header, rows[0])["status"] == "closure_violation"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ness", "--bogus"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["sweep-size", "--sizes", ","])
    assert exc.value.code == EXIT_USAGE
    code, _, err = run_cli(capsys, ["sweep-size", "--sizes", "2", "--jobs", "0"])
    assert code == EXIT_USAGE and "jobs" in err


# ---------------------------------------------------------------- occupancy


def test_occupancy_profile_field(capsys):
    code, out, _ = run_cli(capsys, ["occupancy", "--N", "3"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = cells(header, rows[0])
    values = [float(v) for v in row["occupancy"].split(";")]
    assert len(values) == 3
    assert all(-1e-8 <= v <= 1 + 1e-8 for v in values)


# ---------------------------------------------------------------- sweep-size


def test_sweep_size_order_and_exit(capsys):
    code, out, _ = run_cli(capsys, ["sweep-size", "--sizes", "2,3,4"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert [cells(header, r)["N"] for r in rows] == ["2", "3", "4"]
    assert all(cells(header, r)["status"] == "ok" for r in rows)


def test_sweep_size_aggregates_degenerate(capsys):
    code, out, _ = run_cli(capsys, ["sweep-size", "--sizes", "4,8", "--w", "1", "--mu", "0"])
    assert code == EXIT_DEGENERATE
    header, rows = parse_csv(out)
    assert [cells(header, r)["status"] for r in rows] == ["non_unique", "non_unique"]


def test_sweep_size_validation(capsys):
    code, _, err = run_cli(capsys, ["sweep-size", "--sizes", "1,4"])
    assert code == EXIT_USAGE and "sizes" in err
    code, _, err = run_cli(capsys, ["sweep-size"])
    assert code == EXIT_USAGE


def test_sweep_size_json_lines(capsys):
    code, out, _ = run_cli(capsys, ["sweep-size", "--sizes", "2,3", "--format", "json"])
    assert code == EXIT_OK
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["N"] for d in docs] == [2, 3]
    assert all(isinstance(d["eec"], float) for d in docs)


# ---------------------------------------------------------------- phase-grid


def test_phase_grid_blocks_and_fit(capsys):
    code, out, _ = run_cli(
        capsys,
        ["phase-grid", "--sizes", "4,6,8", "--w-range", "0:0.5:0.5", "--mu-range", "4:4:1"],
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == PHASE_COLUMNS
    assert len(rows) == 6
    parsed = [cells(header, r) for r in rows]
    assert [p["w"] for p in parsed] == ["0.0"] * 3 + ["0.5"] * 3
    assert [p["N"] for p in parsed] == ["4", "6", "8"] * 2
    for p in parsed:
        assert float(p["boundaryMu"]) == pytest.approx(2.0 * abs(float(p["w"])))
        assert float(p["fitSlope"]) < 0  # even-N correlation decays on both lines
        assert p["fitResidual"] != ""


def test_phase_grid_boundary_is_positive_for_negative_w(capsys):
    """The closed chain's gap closes at |mu| = 2|w|, and the sign of w does not move the answer."""
    grid = ["phase-grid", "--sizes", "2,3", "--mu-range", "1:1:1", "--format", "json"]
    docs = {}
    for w in ("-1", "1"):
        code, out, _ = run_cli(capsys, [*grid, f"--w-range={w}:{w}:1"])
        assert code == EXIT_OK
        docs[w] = [json.loads(line) for line in out.splitlines()]
    assert [d["boundaryMu"] for d in docs["-1"]] == [2.0, 2.0]
    assert [d["eec"] for d in docs["-1"]] == pytest.approx([d["eec"] for d in docs["1"]], rel=1e-12)


def test_phase_grid_fit_blank_when_correlation_vanishes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["phase-grid", "--sizes", "3,5,7", "--w-range", "0:0:1", "--mu", "4"],
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(cells(header, r)["fitSlope"] == "" for r in rows)


def test_phase_grid_requires_sizes(capsys):
    code, _, err = run_cli(capsys, ["phase-grid", "--w-range", "0:1:1"])
    assert code == EXIT_USAGE


def test_phase_grid_rejects_reversed_range(capsys):
    code, _, err = run_cli(capsys, ["phase-grid", "--sizes", "2", "--w-range", "2:1:1"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------- config


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 3, "w": 0.0, "mu": 4.0, "gamma21": 1.0}))
    code, out, _ = run_cli(capsys, ["ness", "--config", str(cfg), "--mu", "2.0"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = cells(header, rows[0])
    assert row["N"] == "3"
    assert row["w"] == "0.0"
    assert row["mu"] == "2.0"


def test_config_sweep_block_feeds_phase_grid(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"w": {"start": 0.0, "stop": 1.0, "step": 0.5},
                               "mu": 4.0, "sizes": [4, 6, 8]}))
    code, out, _ = run_cli(capsys, ["phase-grid", "--config", str(cfg)])
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 9


def test_ness_rejects_sweep_config(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"w": {"start": 0.0, "stop": 1.0}}))
    code, _, err = run_cli(capsys, ["ness", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "ness takes no w sweep; only phase-grid takes it" in err


@pytest.mark.parametrize("sweep, reason", [
    ({"start": 0, "stop": 1, "stpe": 0.5}, "a sweep holds start, stop and an optional step"),
    ({"start": "0", "stop": 1}, "a number spelled as a string"),
], ids=["stray-key", "string-number"])
def test_config_sweep_errors_name_the_sweep_as_configs_spell_it(capsys, tmp_path, sweep, reason):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mu": sweep}))
    code, _, err = run_cli(capsys, ["phase-grid", "--sizes", "2", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert f"bad value {sweep!r} for mu sweep: {reason}" in err


def test_config_error_paths(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run_cli(capsys, ["ness", "--config", str(bad)])[0] == EXIT_USAGE

    bad.write_text(json.dumps(["list"]))
    assert run_cli(capsys, ["ness", "--config", str(bad)])[0] == EXIT_USAGE

    bad.write_text(json.dumps({"unknownKey": 1}))
    assert run_cli(capsys, ["ness", "--config", str(bad)])[0] == EXIT_USAGE

    assert run_cli(capsys, ["ness", "--config", str(tmp_path / "missing.json")])[0] == EXIT_USAGE

    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    code, out, err = run_cli(capsys, ["ness", "--config", str(bad)])
    assert code == EXIT_USAGE and out == "" and "numerical failure" not in err


def test_config_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    cfg = tmp_path / "accented.json"
    cfg.write_bytes('{"N": 3, "format": "csv\u00e9"}'.encode("utf-8"))
    src = str(Path(nessfold.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "nessfold", "ness", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    # refused for its value, not as JSON the locale's codec cannot decode
    assert done.returncode == EXIT_USAGE and done.stdout == ""
    assert "format must be csv or json" in done.stderr and "not valid JSON" not in done.stderr


def test_python_dash_m_runs_the_cli():
    """`python -m nessfold` is the console script: a solve writes its row and exits 0, a bad
    chain length is refused with exit 1 and no rows."""
    src = str(Path(nessfold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = partial(subprocess.run, env=env, capture_output=True, text=True, timeout=120)
    done = run([sys.executable, "-m", "nessfold", "ness", "--N", "2", "--format", "json"])
    assert done.returncode == EXIT_OK, done.stderr
    assert [json.loads(line)["status"] for line in done.stdout.splitlines()] == ["ok"]
    refused = run([sys.executable, "-m", "nessfold", "ness", "--N", "0"])
    assert refused.returncode == EXIT_USAGE and refused.stdout == ""


# ---------------------------------------------------------------- output


def test_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, ["ness", "--out", str(target)])
    assert code == EXIT_OK
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert header == BASE_COLUMNS and len(rows) == 1


def test_out_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["ness", "--out", str(tmp_path / "no" / "dir.csv")])
    assert code == EXIT_USAGE


class _ReaderLeavesAfter(io.StringIO):
    """A stdout whose reader leaves after `lines` lines, as `| head` does: later writes raise
    BrokenPipeError.  fileno() is a file of the test's, for the run to point at the null device."""

    def __init__(self, lines, fileno):
        super().__init__()
        self._lines, self._fileno = lines, fileno

    def write(self, s):
        if self.getvalue().count("\n") >= self._lines:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(s)

    def fileno(self):
        return self._fileno


@pytest.mark.parametrize("argv, lines, want", [
    (["sweep-size", "--sizes", "2,3,4,5,6", "--w", "0", "--mu", "4"], 1, EXIT_OK),
    # at w=1, mu=0 the N=3 row is ok and N=4 and N=5 are non_unique: the row that did not
    # get out does not count
    (["sweep-size", "--sizes", "3,4,5", "--w", "1", "--mu", "0"], 2, EXIT_OK),
    (["sweep-size", "--sizes", "3,4,5", "--w", "1", "--mu", "0", "--format", "json"], 2, EXIT_DEGENERATE),
    # validate stops at the first check whose line does not get out
    (["validate"], 1, EXIT_OK),
], ids=["header", "ok-row", "degenerate-row", "validate"])
def test_a_closed_stdout_ends_the_run_quietly(capsys, monkeypatch, tmp_path, argv, lines, want):
    """A reader that leaves early is no usage error: the run stops, prints nothing on stderr,
    and exits with the worst code over the rows already written."""
    with open(tmp_path / "stdout", "w") as fh:
        stdout = _ReaderLeavesAfter(lines, fh.fileno())
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
    assert code == want
    assert stdout.getvalue().count("\n") == lines
    assert capsys.readouterr().err == ""


def test_dump_fold(capsys, tmp_path):
    target = tmp_path / "fold.json"
    code, _, _ = run_cli(capsys, ["ness", "--N", "2", "--dump-fold", str(target)])
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert len(blocks_from_records([(r["m"], r["theta"], r["kind"]) for r in doc["rotations"]])) == 2 * 3
    assert len(doc["rDiag"]) == 4
    assert set(doc["signs"]) <= {-1, 1}
    assert doc["sites"] == [1, 4, 2, 3]
    assert doc["foldResidual"] < 1e-10
    # the 4N = 8 rates are +-eig(X), so each mode's negative is a mode too
    z = np.array(doc["modes"]["real"]) + 1j * np.array(doc["modes"]["imag"])
    assert len(z) == 8
    assert all(np.abs(z + v).min() <= 1e-10 * np.abs(z).max() for v in z)


def test_output_is_deterministic(capsys):
    argv = ["sweep-size", "--sizes", "2,3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert strip_runtime(first) == strip_runtime(second)


def test_parallel_jobs_match_serial(capsys):
    argv = ["sweep-size", "--sizes", "2,3,4"]
    _, serial, _ = run_cli(capsys, argv)
    _, parallel, _ = run_cli(capsys, argv + ["--jobs", "2"])
    assert strip_runtime(serial) == strip_runtime(parallel)


class _InProcessPool:
    """Records max_workers and runs each task here when its result is asked for; starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, task):
        return SimpleNamespace(result=partial(fn, task))

    def shutdown(self, cancel_futures=False):
        pass


def test_jobs_pool_is_sized_by_the_work(capsys, monkeypatch):
    """Under fork every worker starts up front, so --jobs 500 for two solves asks for two."""
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    code, out, _ = run_cli(capsys, ["sweep-size", "--sizes", "2,3", "--jobs", "500"])
    assert code == EXIT_OK and len(parse_csv(out)[1]) == 2
    assert _InProcessPool.sizes == [2]


@pytest.mark.parametrize("cpus, workers", [(3, [3]), (1, []), (None, [])])
def test_jobs_pool_is_bounded_by_the_cpus(capsys, monkeypatch, cpus, workers):
    """--jobs 100000 over ten solves asks for one worker per CPU; on one CPU, or an unknown
    count, the solves run here and no pool starts."""
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(capsys, ["sweep-size", "--sizes", "2,3,4,5,6,7,8,9,10,11", "--jobs", "100000"])
    assert code == EXIT_OK and len(parse_csv(out)[1]) == 10
    assert _InProcessPool.sizes == workers


def _counted_solves(monkeypatch, failing=None):
    """Solve tasks on a two-thread pool, 10 ms each, recording every solve begun; the task
    `failing` raises."""
    begun = []

    def solve(task):
        begun.append(task)
        if task == failing:
            raise RuntimeError("not a solver failure")
        time.sleep(0.01)
        return task

    monkeypatch.setattr(cli, "_solve_task", solve)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    return begun


def test_a_pool_drops_its_queued_tasks_when_the_reader_stops(monkeypatch):
    """A reader that leaves after one row, as `| head -1` does, ends the run once the solves
    already running finish, not after the whole window of 200."""
    begun = _counted_solves(monkeypatch)
    rows = cli._map_tasks(range(200), 2)
    assert next(rows) == 0
    rows.close()
    assert len(begun) < 20


def test_a_pool_drops_its_queued_tasks_when_a_solve_raises(monkeypatch):
    begun = _counted_solves(monkeypatch, failing=0)
    with pytest.raises(RuntimeError, match="not a solver failure"):
        next(cli._map_tasks(range(200), 2))
    assert len(begun) < 20


def test_a_pool_lists_a_window_of_tasks_ahead_of_its_rows(capsys, monkeypatch):
    """A --jobs pool is fed a window of POOL_WINDOW tasks, not the whole grid up front: of 15,251
    solves, the window and the one fed as the first row goes out are listed when it is written."""
    listed, at_first_row = [], []
    tasks = cli._tasks

    def counted(cfg, command):
        for task in tasks(cfg, command):
            listed.append(task)
            yield task

    def first_row(cfg, columns, rows):
        next(rows)
        at_first_row.append(len(listed))
        return EXIT_OK

    monkeypatch.setattr(cli, "_tasks", counted)
    monkeypatch.setattr(cli, "_write_rows", first_row)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["phase-grid", "--sizes", "2", "--w-range", "0:1:0.01", "--mu-range", "0.5:2:0.01", "--jobs", "2"]
    assert main(argv) == EXIT_OK
    assert at_first_row == [cli.POOL_WINDOW + 1]


# ---------------------------------------------------------------- failed readout

# a chi=2 cap reads N=4 fine but leaves N=6 and N=8 with occupancies outside [0, 1]; off the
# w = delta line, where no stack entry the fold takes an angle from sits at roundoff, so the
# statuses do not hang on the last bits of the stack
_CAPPED_READOUT = ["--sizes", "4,6,8", "--w", "1.5", "--mu", "3", "--max-chi", "2"]


@pytest.mark.parametrize("command", ["sweep-size", "phase-grid"])
def test_failed_readout_is_a_row_not_an_abort(capsys, command):
    code, out, err = run_cli(capsys, [command, *_CAPPED_READOUT])
    assert code == EXIT_NUMERICAL
    assert "Traceback" not in err
    header, rows = parse_csv(out)
    assert [cells(header, r)["status"] for r in rows] == ["ok", "unphysical_readout",
                                                           "unphysical_readout"]
    _, parallel, _ = run_cli(capsys, [command, *_CAPPED_READOUT, "--jobs", "2"])
    assert strip_runtime(parallel) == strip_runtime(out)


def test_failed_readout_row_keeps_the_fold_and_replay_diagnostics(capsys):
    code, out, err = run_cli(capsys, ["occupancy", "--N", "6", "--w", "1.5", "--mu", "3", "--max-chi", "2",
                                      "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] == "unphysical_readout"
    assert doc["eec"] is None and doc["occupancy"] is None
    assert doc["maxBond"] == 2
    assert 0 <= doc["foldResidual"] < 1e-10 and 0 <= doc["orthoResidual"] < 1e-10


def test_vanished_vacuum_row_keeps_the_fold_and_replay_diagnostics(capsys):
    """A chi=1 cap leaves N=4 with a zero vacuum amplitude after a finished fold and replay."""
    code, out, err = run_cli(capsys, ["ness", "--N", "4", "--max-chi", "1", "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] == "vacuum_vanishes"
    assert doc["eec"] is None
    assert doc["maxBond"] == 1
    assert 0 <= doc["foldResidual"] < 1e-10 and 0 <= doc["orthoResidual"] < 1e-10


# ---------------------------------------------------------------- bench, validate


def test_bench_output(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--sizes", "2,3"])
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == BENCH_COLUMNS
    assert len(rows) == 2
    first, last = (cells(header, r) for r in rows)
    assert len(first["runsSeconds"].split(";")) == 3
    assert first["logLogSlope"] == ""
    assert last["logLogSlope"] != ""
    assert float(last["medianSeconds"]) > 0


def test_bench_slope_is_the_log_linear_fit_of_the_medians(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--sizes", "2,3,4", "--format", "json"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["logLogSlope"] is None for r in rows] == [True, True, False]
    slope, _, _ = log_linear_fit(np.log([r["N"] for r in rows]),
                                 np.maximum([r["medianSeconds"] for r in rows], 1e-9))
    assert rows[-1]["logLogSlope"] == slope


def test_bench_rows_carry_their_status(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--sizes", "4,6", "--w", "1.5", "--mu", "3", "--max-chi", "2"])
    assert code == EXIT_NUMERICAL
    header, rows = parse_csv(out)
    assert [(cells(header, r)["N"], cells(header, r)["status"]) for r in rows] == [
        ("4", "ok"), ("6", "unphysical_readout")]


def test_validate_suite_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "5/5 checks passed"
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["PASS", name] for name in ("analytic_single_site", "second_space_oracle", "decay_profile",
                                    "degeneracy_detection", "dense_equivalence")]


# ---------------------------------------------------------------- units


@pytest.mark.parametrize("argv", [
    ["ness", "--N", "1"],
    ["ness", "--N", "4", "--max-chi", "1"],
    ["occupancy", "--N", "3"],
    ["occupancy", "--N", "6", "--w", "1.5", "--mu", "3", "--max-chi", "2"],
    ["sweep-size", "--sizes", "3,4", "--w", "1", "--mu", "0"],
    ["sweep-size", "--sizes", "2", "--eps-fold", "0.7"],
    ["phase-grid", "--sizes", "2,3,4", "--w-range", "0:1:1"],
    ["phase-grid", "--sizes", "2,3"],
    ["bench", "--sizes", "2,3"],
    ["bench", "--sizes", "4,8", "--w", "1", "--mu", "0"],
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_rows_hold_plain_python_values(capsys, monkeypatch, argv):
    """A row holds None or a Python int, float or str and nothing else, refused rows too,
    so csv writes a float as its repr and json.dumps never meets a numpy scalar; a cell
    the solve did not fill is absent, never an empty string."""
    written = []

    def recording(cfg, columns, rows):
        return _write_rows(cfg, columns, (written.append(row) or row for row in rows))

    monkeypatch.setattr(cli, "_write_rows", recording)
    run_cli(capsys, argv)
    assert written
    values = [v for row in written for v in row.values()]
    assert {type(v) for v in values} <= {type(None), int, float, str}
    assert "" not in values


@pytest.mark.parametrize("statuses, expected", [
    (["ok", "ok"], EXIT_OK),
    (["ok", "non_unique"], EXIT_DEGENERATE),
    (["non_unique", "closure_violation"], EXIT_NUMERICAL),
    ([], EXIT_OK),
], ids=["ok", "degenerate", "numerical", "empty"])
def test_aggregate_exit_ladder(capsys, statuses, expected):
    assert _write_rows(RunConfig(), ["status"], [{"status": s} for s in statuses]) == expected
    assert capsys.readouterr().out.splitlines() == ["status", *statuses]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_cells_are_written_blank(capsys, fmt):
    """2|w| overflows to inf above w = 8.99e307; strict JSON has no inf or nan, so such a cell
    is written blank, as one the solve did not fill."""
    cfg = RunConfig()
    cfg.format = fmt
    row = {"w": 1e308, "boundaryMu": float("inf"), "fitSlope": np.float64("nan"), "status": "ok"}
    assert _write_rows(cfg, ["w", "boundaryMu", "fitSlope", "status"], [row]) == EXIT_OK
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out.splitlines()[1] == "1e+308,,,ok"
    else:
        refuse = partial(pytest.fail, "a non-finite number was written")
        assert json.loads(out, parse_constant=refuse) == {"w": 1e308, "boundaryMu": None, "fitSlope": None,
                                                          "status": "ok"}


def test_sweep_values_inclusive_endpoints():
    vals = sweep({"start": 0.0, "stop": 4.0, "step": 0.5})
    assert vals == [0.5 * k for k in range(9)]
    assert sweep({"start": 0.0, "stop": 1.0, "step": 0.4}) == [0.0, 0.4, 0.8]


def test_a_sweep_longer_than_a_run_is_refused_before_it_is_listed():
    assert len(sweep("0:999999:1")) == cli.MAX_SOLVES
    with pytest.raises(ValueError, match="more than 1000000 values"):
        sweep("0:1000000:1")


def test_a_grid_of_more_solves_than_a_run_allows_is_refused():
    cfg = RunConfig()
    cfg.sizes, cfg.w_range, cfg.mu_range = [2], sweep("0:1000:1"), sweep("0:1000:1")
    with pytest.raises(cli._UsageError, match="lists 1002001 solves"):
        cfg.validate_common("phase-grid")
    cfg.mu_range = sweep("0:998:1")
    cfg.validate_common("phase-grid")


def test_bench_counts_each_of_its_runs_against_the_bound():
    """bench solves each size BENCH_RUNS times, so 333,334 sizes list 1,000,002 solves and are
    refused before any size is checked."""
    cfg = RunConfig()
    cfg.sizes = list(range(2, 333_336))
    with pytest.raises(cli._UsageError, match="lists 1000002 solves"):
        cfg.validate_common("bench")


class _FirstSolve(Exception):
    pass


def _traced_peak_before_the_first_solve(capsys, monkeypatch, argv) -> int:
    def first_solve(task):
        raise _FirstSolve

    monkeypatch.setattr(cli, "_solve_task", first_solve)
    tracemalloc.start()
    try:
        with pytest.raises(_FirstSolve):
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == ",".join(PHASE_COLUMNS) + "\n"  # the header, and no row
    return peak


def test_a_serial_run_lists_each_solve_as_it_is_solved(capsys, monkeypatch):
    """A serial grid builds each task just before its solve, so what it holds before the first
    solve does not grow with the grid; a grid listed up front holds about 470 bytes a solve."""
    peaks = [_traced_peak_before_the_first_solve(
        capsys, monkeypatch, ["phase-grid", "--sizes", "2", "--w-range", f"0:{w}:1", "--mu-range", "0:99:1"])
        for w in (49, 199)]
    assert max(peaks) < 1_000_000
    assert peaks[1] - peaks[0] < 100_000


def test_every_typed_failure_has_a_row_status():
    """Every NessfoldError has a _FAILURES row, and every status exactly one: a failure
    without a row aborts the whole sweep, and two exceptions for one status are one
    failure mode spelled twice."""
    typed = {cls for cls in vars(exceptions).values() if isinstance(cls, type)
             and issubclass(cls, NessfoldError) and cls is not NessfoldError}
    assert typed
    assert typed <= {kind for kind, _, _ in cli._FAILURES}
    statuses = [status for _, status, _ in cli._FAILURES]
    assert len(statuses) == len(set(statuses))


def test_solve_task_maps_stage_failures(monkeypatch):
    cfg = RunConfig()
    task = next(cli._tasks(cfg, "ness"))

    def raise_vacuum(*args, **kwargs):
        raise VacuumVanishes("synthetic")

    monkeypatch.setattr("nessfold.cli.solve_end_bath", raise_vacuum)
    assert _solve_task(task)["status"] == "vacuum_vanishes"

    def raise_singular(*args, **kwargs):
        raise SingularEigenbasis("synthetic")

    monkeypatch.setattr("nessfold.cli.solve_end_bath", raise_singular)
    assert _solve_task(task)["status"] == "singular_eigenbasis"


def test_untyped_solver_error_is_a_numerical_failure(capsys, monkeypatch):
    """An error outside the failure table aborts the run in main, after the CSV header."""
    def raise_linalg(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic")

    monkeypatch.setattr("nessfold.cli.solve_end_bath", raise_linalg)
    code, out, err = run_cli(capsys, ["ness"])
    assert code == EXIT_NUMERICAL
    assert out == ",".join(BASE_COLUMNS) + "\n"
    assert err == "nessfold: numerical failure: synthetic\n"
