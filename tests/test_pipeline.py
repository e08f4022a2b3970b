"""Solver settings are checked once, in the library, before any stage runs."""

import pytest

from nessfold import pipeline
from nessfold.cli import EXIT_USAGE, main
from nessfold.model import EndBathParams, KitaevParams
from nessfold.pipeline import solve_end_bath

POINT = KitaevParams(N=3, w=0.5, mu=2.0, delta=1.0)
BATHS = EndBathParams(gamma21=1.0, gamma22=1.0)


# each once ended in a stage error: VacuumVanishes (both trunc_tol cases), NonUniqueNess,
# ClosureViolation, TypeError
@pytest.mark.parametrize("setting, message", [
    ({"trunc_tol": float("nan")}, "trunc_tol must be a finite number >= 0"),
    ({"trunc_tol": float("inf")}, "trunc_tol must be a finite number >= 0"),
    ({"eps_z": float("nan")}, "eps_z must be a finite number > 0"),
    ({"eps_fold": -1.0}, "eps_fold must be a finite number > 0"),
    ({"max_chi": 2.5}, "max_chi must be an integer >= 0"),
], ids=["trunc_tol-nan", "trunc_tol-inf", "eps_z-nan", "eps_fold-negative", "max_chi-fraction"])
def test_bad_solver_setting_is_refused_before_any_stage(monkeypatch, setting, message):
    def stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(pipeline, "build_kitaev", stage)
    with pytest.raises(ValueError, match=message):
        solve_end_bath(POINT, BATHS, **setting)


def test_cli_reports_the_library_check(capsys):
    assert main(["ness", "--N", "3", "--eps-fold", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps_fold must be a finite number > 0, got -1.0" in captured.err
