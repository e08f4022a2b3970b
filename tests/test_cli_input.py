"""Command-line runner: bad input is a usage error, failed solves are not timed, fold dumps
replay, and every flag comes from the settings table."""

import argparse
import csv
import io
import json
import os
import re

import numpy as np
import pytest

from nessfold import cli
from nessfold.cli import (_SETTINGS, EXIT_DEGENERATE, EXIT_NUMERICAL, EXIT_USAGE, RunConfig,
                          _UsageError, build_parser)
from nessfold.exceptions import ClosureViolation, NonUniqueNess, UnphysicalReadout, VacuumVanishes
from nessfold.folding import FoldResult
from nessfold.model import EndBathParams, KitaevParams
from nessfold.pipeline import solve_end_bath
from nessfold.tns import apply_inverse_sequence, dense_coefficients, normalize_vacuum, product_state

from helpers import blocks_from_records, run_cli


@pytest.mark.parametrize("argv, config", [
    (["ness", "--N", "0"], None),
    (["ness", "--gamma21", "-1"], None),
    (["ness"], {"N": "abc"}),
    (["ness"], {"N": 2.7}),
    (["ness"], {"mu": {"start": "x", "stop": 1}}),
    (["sweep-size"], {"sizes": 4}),
    (["sweep-size"], {"sizes": [2, 3.5]}),
    (["bench", "--sizes", "0,2"], None),
    # JSON values of the wrong type are refused, not read as 1, 0 or their spelling
    (["ness"], {"N": True}),
    (["ness"], {"w": False}),
    (["ness"], {"out": None}),
    (["ness"], {"dump_fold": False}),
    # a w/mu range belongs to phase-grid alone
    (["bench", "--sizes", "2,3"], {"w": {"start": 0, "stop": 1, "step": 0.5}}),
    (["validate"], {"mu": {"start": 0, "stop": 1}}),
    (["sweep-size", "--sizes", "2,3"], {"w": {"start": 0, "stop": 1}}),
    # an unwritable dump path fails before the header and the solve
    (["ness", "--dump-fold", "no/dir.json"], None),
    (["occupancy", "--dump-fold", "."], None),
    # nan and +-inf are no numbers, from a flag or from a config
    (["ness", "--N", "4", "--w", "0.5", "--mu", "2", "--eps-fold", "nan"], None),
    (["ness", "--eps-z", "inf"], None),
    (["ness", "--trunc-tol", "nan"], None),
    (["ness", "--trunc-tol", "inf"], None),
    (["ness", "--w=-inf"], None),
    (["ness"], {"trunc_tol": float("nan")}),
    # a sweep object holds numbers under start, stop and step, and nothing else
    (["phase-grid", "--sizes", "2"], {"w": {"start": 0, "stop": 1, "stpe": 0.5}}),
    (["phase-grid", "--sizes", "2"], {"w": {"start": 0, "stop": 1, "step": True}}),
    (["phase-grid", "--sizes", "2"], {"mu": {"start": False, "stop": 1}}),
    (["phase-grid", "--sizes", "2"], {"w": {"start": 0, "stop": 1, "step": 0.5, "n": 3}}),
    # a range has no config key of its own
    (["phase-grid", "--sizes", "2"], {"w_range": {"start": 0, "stop": 1}}),
    # a sweep whose point count overflows, from a flag or from a config
    (["phase-grid", "--sizes", "2", "--w-range", "0:1e300:1e-300"], None),
    (["phase-grid", "--sizes", "2"], {"mu": {"start": -1e308, "stop": 1e308, "step": 1e-300}}),
    # a sweep steps forward, and bench needs sizes to time
    (["phase-grid", "--sizes", "2", "--w-range", "0:1:0"], None),
    (["phase-grid", "--sizes", "2"], {"w": {"start": 0, "stop": 1, "step": -0.5}}),
    (["bench"], {"sizes": []}),
    # a config number spelled as a string, at the top level or in a list or sweep object
    (["ness"], {"N": "3"}),
    (["ness"], {"w": "0.5"}),
    (["sweep-size"], {"sizes": ["2", "3"]}),
    (["phase-grid", "--sizes", "2"], {"w": {"start": "0", "stop": "1"}}),
    # a subcommand takes no flag and no config key for a setting it does not read
    (["validate", "--max-chi", "8"], None),
    (["validate", "--format", "json"], None),
    (["ness", "--jobs", "2"], None),
    (["bench", "--sizes", "2", "--jobs", "2"], None),
    (["ness"], {"sizes": [2, 3]}),
    (["validate"], {"N": 3}),
    # a range flag needs all three of its parts, and a choice setting takes only its choices
    (["phase-grid", "--sizes", "2", "--w-range", "0:1"], None),
    (["ness"], {"format": "xml"}),
])
def test_bad_input_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err and "numerical failure" not in err
    assert not {"None", "False"} & set(os.listdir(tmp_path))


@pytest.mark.parametrize("argv", [["validate", "--max-chi", "8"], ["ness", "--jobs", "2"]])
def test_unknown_flag_is_refused_with_the_subcommand_usage(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage: nessfold {argv[0]} [-h]")
    assert f"nessfold {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}\n" in err


@pytest.mark.parametrize("argv, flag", [
    (["ness", "--N", "x"], "--N"),
    (["ness", "--N", "2.5"], "--N"),
    (["ness", "--w=-inf"], "--w"),
    (["sweep-size", "--sizes", ","], "--sizes"),
    (["sweep-size", "--sizes", "2,1e9999"], "--sizes"),
    (["phase-grid", "--sizes", "2", "--w-range", "0:1"], "--w-range"),
    (["phase-grid", "--sizes", "2", "--w-range", "2:1:1"], "--w-range"),
    (["phase-grid", "--sizes", "2", "--w-range", "0:1:0"], "--w-range"),
])
def test_bad_flag_value_is_refused_with_the_subcommand_usage(capsys, argv, flag):
    """One cast reads every flag, so every bad value is refused as an unknown flag is: the
    subcommand's usage, then the flag as typed and the reason."""
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage: nessfold {argv[0]} [-h]")
    assert f"nessfold {argv[0]}: error: bad value " in err and f" for {flag}: " in err


def test_validate_reports_a_raising_check_and_exits_three(capsys, monkeypatch):
    def broken():
        raise ClosureViolation("synthetic")

    monkeypatch.setattr(cli, "CHECKS", {"fine": lambda: (True, "ok"), "broken": broken})
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == EXIT_NUMERICAL
    fine, failed, summary = out.splitlines()
    assert fine.startswith("PASS  fine ")
    assert failed.startswith("FAIL  broken ") and "ClosureViolation: synthetic" in failed
    assert summary == "1/2 checks passed"


def test_degeneracy_check_fails_when_the_solve_does_not_refuse(monkeypatch):
    monkeypatch.setattr(cli, "solve_end_bath", lambda *args, **kwargs: None)
    ok, detail = cli._check_degeneracy()
    assert not ok
    assert detail == "N=4 at w=1, mu=0 did not report a degeneracy"


def bench_rows(out):
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(len(r["runsSeconds"].split(";")) == 3 for r in rows)
    return rows


def test_bench_degenerate_sizes_are_not_timed(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--sizes", "4,8", "--w", "1", "--mu", "0"])
    assert code == EXIT_DEGENERATE
    rows = bench_rows(out)
    assert [r["N"] for r in rows] == ["4", "8"]
    assert all(r["medianSeconds"] == "" and r["logLogSlope"] == "" for r in rows)


def test_bench_numerical_failure_exits_three(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--sizes", "2,3", "--eps-fold", "0.7"])
    assert code == EXIT_NUMERICAL
    assert all(r["medianSeconds"] == "" for r in bench_rows(out))


def test_dump_fold_replays_to_the_solved_state(capsys, tmp_path):
    target = tmp_path / "fold.json"
    code, _, _ = run_cli(capsys, ["ness", "--N", "3", "--w", "0.5", "--mu", "2",
                                  "--dump-fold", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    dumped = FoldResult(
        blocks=blocks_from_records([(r["m"], r["theta"], r["kind"]) for r in doc["rotations"]]),
        rDiag=np.array(doc["rDiag"]),
        signs=np.array(doc["signs"]),
        sites=np.array(doc["sites"]),
        residual=doc["foldResidual"],
    )
    state = product_state(dumped.bits)
    apply_inverse_sequence(state, dumped)
    normalize_vacuum(state)

    sol = solve_end_bath(KitaevParams(N=3, w=0.5, mu=2.0, delta=1.0),
                         EndBathParams(gamma21=1.0, gamma22=1.0))
    np.testing.assert_array_equal(dumped.blocks, sol.foldResult.blocks)
    np.testing.assert_array_equal(dumped.rotations, sol.foldResult.rotations)
    np.testing.assert_allclose(state.z0 * dense_coefficients(state),
                               sol.state.z0 * dense_coefficients(sol.state), rtol=0, atol=1e-12)


@pytest.mark.parametrize("N, w, mu, max_chi, refusal, want", [
    (4, 1.0, 1.0, 1, VacuumVanishes, EXIT_NUMERICAL),
    (6, 1.5, 3.0, 2, UnphysicalReadout, EXIT_NUMERICAL),
    (4, 1.0, 0.0, 0, NonUniqueNess, EXIT_DEGENERATE),
], ids=["vacuum_vanishes", "unphysical_readout", "non_unique"])
def test_dump_fold_holds_every_finished_fold(capsys, tmp_path, N, w, mu, max_chi, refusal, want):
    """A row refused at vacuum normalization or at readout dumps the fold it finished, the
    blocks its refusal carries; a point refused before the fold dumps nothing."""
    target = tmp_path / "fold.json"
    code, _, _ = run_cli(capsys, ["ness", "--N", str(N), "--w", str(w), "--mu", str(mu),
                                  "--max-chi", str(max_chi), "--dump-fold", str(target)])
    assert code == want
    with pytest.raises(refusal) as exc:
        solve_end_bath(KitaevParams(N=N, w=w, mu=mu, delta=1.0),
                       EndBathParams(gamma21=1.0, gamma22=1.0), max_chi=max_chi)
    sol = exc.value.solution
    if sol is None:
        assert not target.exists()
        return
    records = [(r["m"], r["theta"], r["kind"]) for r in json.loads(target.read_text())["rotations"]]
    assert "".join(kind for _, _, kind in records) == "UUUVV" * (N * (2 * N - 1))
    np.testing.assert_array_equal(blocks_from_records(records), sol.foldResult.blocks)


# the settings groups each subcommand reads, and so takes as flags and as config keys
COMMAND_GROUPS = {
    "ness": {"point", "out", "format", "solver", "dump"},
    "occupancy": {"point", "out", "format", "solver", "dump"},
    "sweep-size": {"point", "out", "format", "jobs", "solver", "sizes"},
    "phase-grid": {"point", "out", "format", "jobs", "solver", "sizes", "grid"},
    "validate": {"out"},
    "bench": {"point", "out", "format", "solver", "sizes"},
}


def test_parser_flags_come_from_the_settings_table():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMAND_GROUPS)
    for command, sub in subparsers.choices.items():
        options = {a.dest: a.option_strings for a in sub._actions if a.dest != "help"}
        settings = {s.name for s in _SETTINGS if s.group in COMMAND_GROUPS[command]}
        assert set(options) == settings | {"config"}, command
        for name in settings:
            assert options[name] == ["--" + name.replace("_", "-")], (command, name)


# per setting, flag text and a config value that spell the same value, which is not its default
_FLAG_AND_CONFIG = {
    "N": ("3", 3), "w": ("0.5", 0.5), "mu": ("2", 2), "delta": ("0.5", 0.5),
    "gamma11": ("0.25", 0.25), "gamma21": ("2", 2.0), "gamma12": ("0.25", 0.25),
    "gamma22": ("3", 3), "out": ("rows.csv", "rows.csv"), "format": ("json", "json"),
    "jobs": ("2", 2), "trunc_tol": ("1e-10", 1e-10), "max_chi": ("8", 8),
    "eps_z": ("1e-9", 1e-9), "eps_fold": ("1e-6", 1e-6), "sizes": ("2,3", [2, 3]),
    "dump_fold": ("fold.json", "fold.json"),
    "w_range": ("0:1:0.5", {"start": 0, "stop": 1, "step": 0.5}),
    "mu_range": ("1:2:1", {"start": 1, "stop": 2}),
}


def test_flag_and_config_give_the_same_setting(tmp_path):
    """RunConfig._set casts flag text and config values alike."""
    assert set(_FLAG_AND_CONFIG) == {s.name for s in _SETTINGS}
    path = tmp_path / "run.json"
    for s in _SETTINGS:
        text, value = _FLAG_AND_CONFIG[s.name]
        command = next(c for c, groups in COMMAND_GROUPS.items() if s.group in groups)
        from_flag, from_config = RunConfig(), RunConfig()
        from_flag.apply_flags(build_parser().parse_args([command, "--" + s.name.replace("_", "-"), text]))
        path.write_text(json.dumps({s.name.removesuffix("_range"): value}))
        from_config.load_file(str(path), command)
        assert getattr(from_flag, s.name) == getattr(from_config, s.name) != s.default, s.name


def test_config_keys_are_the_settings_a_subcommand_takes(tmp_path):
    path = tmp_path / "run.json"
    for command, groups in COMMAND_GROUPS.items():
        for s in _SETTINGS:
            key = s.name.removesuffix("_range")  # a config spells a range as a w or mu sweep object
            path.write_text(json.dumps({key: _FLAG_AND_CONFIG[s.name][1]}))
            cfg = RunConfig()
            if s.group in groups:
                cfg.load_file(str(path), command)
                continue
            with pytest.raises(_UsageError) as exc:
                cfg.load_file(str(path), command)
            refused, takers = str(exc.value).split("; only ")
            assert refused == f"{command} takes no {key if key == s.name else key + ' sweep'}"
            named = set(re.split(", | and ", takers.removesuffix(" takes it").removesuffix(" take it")))
            assert named == {c for c, g in COMMAND_GROUPS.items() if s.group in g}, takers
