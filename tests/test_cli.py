"""Command-line runner: subcommands, formats, exit codes, determinism."""

import csv
import io
import json

import numpy as np
import pytest

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
    _task_from_config,
    _write_rows,
    main,
    sweep,
)
from nessfold import exceptions
from nessfold.exceptions import NessfoldError, SingularEigenbasis, VacuumVanishes

from helpers import expected_rotation_count


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert float(p["boundaryMu"]) == pytest.approx(2.0 * float(p["w"]))
        assert float(p["fitSlope"]) < 0  # even-N correlation decays on both lines
        assert p["fitResidual"] != ""


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
    assert code == EXIT_USAGE and "phase-grid" in err


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


def test_dump_fold(capsys, tmp_path):
    target = tmp_path / "fold.json"
    code, _, _ = run_cli(capsys, ["ness", "--N", "2", "--dump-fold", str(target)])
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert len(doc["rotations"]) == expected_rotation_count(2)
    assert len(doc["rDiag"]) == 4
    assert set(doc["signs"]) <= {-1, 1}
    assert doc["sites"] == [1, 4, 2, 3]
    assert doc["foldResidual"] < 1e-10
    assert len(doc["modes"]["real"]) == 8


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


def test_jobs_pool_is_sized_by_the_work(capsys, monkeypatch):
    """Under fork every worker starts up front, so --jobs 500 for two solves asks for two."""
    sizes = []

    class InProcessPool:
        """Records max_workers and runs the tasks here; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    code, out, _ = run_cli(capsys, ["sweep-size", "--sizes", "2,3", "--jobs", "500"])
    assert code == EXIT_OK and len(parse_csv(out)[1]) == 2
    assert sizes == [2]


# ---------------------------------------------------------------- failed readout

# a chi=2 cap reads N=4 fine but leaves N=6 and N=8 with occupancies outside [0, 1]
_CAPPED_READOUT = ["--sizes", "4,6,8", "--w", "1", "--mu", "3", "--max-chi", "2"]


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
    code, out, err = run_cli(capsys, ["occupancy", "--N", "6", "--w", "1", "--mu", "3", "--max-chi", "2",
                                      "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] == "unphysical_readout"
    assert doc["eec"] is None and doc["occupancy"] is None
    assert doc["maxBond"] == 2
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


def test_bench_rows_carry_their_status(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--sizes", "4,6", "--w", "1", "--mu", "3", "--max-chi", "2"])
    assert code == EXIT_NUMERICAL
    header, rows = parse_csv(out)
    assert [(cells(header, r)["N"], cells(header, r)["status"]) for r in rows] == [
        ("4", "ok"), ("6", "unphysical_readout")]


def test_validate_suite_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "6/6 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


# ---------------------------------------------------------------- units


@pytest.mark.parametrize("statuses, expected", [
    (["ok", "ok"], EXIT_OK),
    (["ok", "non_unique"], EXIT_DEGENERATE),
    (["non_unique", "closure_violation"], EXIT_NUMERICAL),
    ([], EXIT_OK),
], ids=["ok", "degenerate", "numerical", "empty"])
def test_aggregate_exit_ladder(capsys, statuses, expected):
    assert _write_rows(RunConfig(), ["status"], [{"status": s} for s in statuses]) == expected
    assert capsys.readouterr().out.splitlines() == ["status", *statuses]


def test_sweep_values_inclusive_endpoints():
    vals = sweep({"start": 0.0, "stop": 4.0, "step": 0.5})
    assert vals == [0.5 * k for k in range(9)]
    assert sweep({"start": 0.0, "stop": 1.0, "step": 0.4}) == [0.0, 0.4, 0.8]


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
    task = _task_from_config(cfg)

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
