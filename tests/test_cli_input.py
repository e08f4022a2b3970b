"""Command-line runner: bad input is a usage error, failed solves are not timed, fold dumps replay."""

import csv
import io
import json

import numpy as np
import pytest

from nessfold.cli import EXIT_DEGENERATE, EXIT_NUMERICAL, EXIT_USAGE, main
from nessfold.folding import ROTATION_DTYPE, FoldResult
from nessfold.model import EndBathParams, KitaevParams
from nessfold.pipeline import solve_end_bath
from nessfold.tns import apply_inverse_sequence, dense_coefficients, normalize_vacuum, product_state


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, config", [
    (["ness", "--N", "0"], None),
    (["ness", "--gamma21", "-1"], None),
    (["ness"], {"N": "abc"}),
    (["ness"], {"N": 2.7}),
    (["ness"], {"mu": {"start": "x", "stop": 1}}),
    (["sweep-size"], {"sizes": 4}),
    (["sweep-size"], {"sizes": [2, 3.5]}),
    (["bench", "--sizes", "0,2"], None),
])
def test_bad_input_is_a_usage_error(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err and "numerical failure" not in err


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
    rots = doc["rotations"]
    dumped = FoldResult(
        rotations=np.rec.fromarrays(
            [[r["m"] for r in rots], [r["theta"] for r in rots], [r["kind"] for r in rots]],
            dtype=ROTATION_DTYPE),
        rDiag=np.array(doc["rDiag"]),
        signs=np.array(doc["signs"]),
        residual=doc["foldResidual"],
    )
    state = product_state([(1 + s) // 2 for s in doc["signs"]])
    apply_inverse_sequence(state, dumped)
    normalize_vacuum(state)

    sol = solve_end_bath(KitaevParams(N=3, w=0.5, mu=2.0, delta=1.0),
                         EndBathParams(gamma21=1.0, gamma22=1.0))
    np.testing.assert_array_equal(dumped.rotations, sol.foldResult.rotations)
    np.testing.assert_allclose(state.z0 * dense_coefficients(state),
                               sol.state.z0 * dense_coefficients(sol.state), rtol=0, atol=1e-12)
