"""Seeded generator, BENCHMARK.json consistency, and a fold defect at large N."""

import json
from pathlib import Path

import pytest

from nessfold import ClosureViolation, KitaevParams, build_kitaev, end_baths, fold

from harness import END_TO_END_UNITS, PER_LAYER_UNITS, params_of, transfer_stack
from reference import reference_observables, stability_margin
from workloads import DEFAULT_SEED, GAIN_BATHS, WORKLOADS, is_degenerate

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
OTHER_SEED = 20260417


@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_points_are_non_degenerate_with_stable_references(name, seed):
    points = WORKLOADS[name].points(seed)
    assert points
    for p in points:
        assert not is_degenerate(p)
        A = build_kitaev(params_of(p)).A
        channels = end_baths(p.N, p.baths)
        assert stability_margin(A, channels) > 0.0
        reference_observables(A, channels)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_points(name):
    gen = WORKLOADS[name].points
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.xfail(raises=ClosureViolation, strict=True,
                   reason="the fold's absolute closure tolerance 1e-10 is exceeded at N=96")
def test_fold_closes_at_n96():
    # a known defect, kept visible: at N >= 64 the closure error (2e-11 to
    # 1.4e-9 near the ROADMAP line) crosses the absolute tolerance at a fifth
    # to a half of points, so no seeded workload can run the fold there.  Here
    # it is 2.5e-10 with one BLAS thread or two.  A tolerance that scales with
    # the accumulated round-off turns this into a pass.
    fold(transfer_stack(KitaevParams(N=96, w=0.5, mu=2.27, delta=1.0), GAIN_BATHS))
