"""Loud tracing, span arithmetic, and exact per-layer counts."""

import time
import types

import numpy as np
import pytest
import scipy.linalg

from nessfold import pipeline

from harness import Tally, traced_pass
from spans import STAGES, TraceError, Tracer, layer_metrics
from workloads import WORKLOADS

COUNT_KEYS = ("folding.rotations", "tns.gates_2site", "tns.max_bond")


def fake_pipeline(**overrides):
    ns = types.SimpleNamespace(__name__="fake_pipeline")
    for name in STAGES:
        setattr(ns, name, lambda *a, **k: None)
    for name, fn in overrides.items():
        setattr(ns, name, fn)
    return ns


def test_install_refuses_a_missing_stage_and_patches_nothing():
    ns = fake_pipeline()
    del ns.fold
    svd = np.linalg.svd
    with pytest.raises(TraceError, match="fold"):
        Tracer().install(ns)
    assert np.linalg.svd is svd


def test_uninstall_restores_every_name():
    originals = {name: getattr(pipeline, name) for name in STAGES}
    kernels = (np.linalg.svd, np.linalg.qr, scipy.linalg.svd)
    with Tracer() as tracer:
        tracer.install(pipeline)
        assert pipeline.fold is not originals["fold"]
    assert {name: getattr(pipeline, name) for name in STAGES} == originals
    assert (np.linalg.svd, np.linalg.qr, scipy.linalg.svd) == kernels


def test_require_fails_for_a_layer_that_never_fired():
    tracer = Tracer()
    with pytest.raises(TraceError, match="tns"):
        tracer.require(["tns"])


def test_self_time_excludes_children_and_kernels_follow_the_open_span():
    def fold(x):
        time.sleep(0.02)
        return np.linalg.svd(np.eye(3))

    ns = fake_pipeline(fold=fold)
    ns.apply_inverse_sequence = lambda: ns.fold(None)
    with Tracer() as tracer:
        tracer.install(ns)
        ns.apply_inverse_sequence()
    outer, inner = tracer.spans
    assert (outer.layer, inner.layer, inner.parent) == ("tns", "folding", outer.id)
    assert inner.end - inner.start >= 0.02
    assert outer.self_s < 0.01
    assert [k.span for k in tracer.kernels] == [inner.id]
    # the SVD ran inside a folding span, so it is not charged to tns
    assert layer_metrics(tracer)["tns.svd_calls"] == 0


@pytest.mark.parametrize("name", ["fig1-panels", "exact-n8"])
def test_counts_repeat_exactly_for_the_same_seed(name):
    points = WORKLOADS[name].points(0)
    tally = Tally()
    for _ in range(2):
        traced_pass(points, tally)
    first, second = tally.counts
    assert {k: first[k] for k in COUNT_KEYS} == {k: second[k] for k in COUNT_KEYS}
    assert tally.layers[0]["tns.svd_calls"] == tally.layers[1]["tns.svd_calls"]
    # one SVD per two-site gate, plus one per gesvd fallback
    assert tally.layers[0]["tns.svd_calls"] == first["tns.gates_2site"] + tally.layers[0]["tns.svd_retries"]
