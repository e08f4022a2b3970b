"""The traced benchmark wraps stage names it looks up in nessfold.pipeline at run time; a
renamed or removed stage would only surface when `benchmark/run.py --trace 1` runs."""

import importlib.util
import sys
from pathlib import Path

import nessfold.pipeline

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def test_benchmark_stage_names_resolve_in_the_pipeline(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.STAGES
    missing = [name for name in spans.STAGES if not callable(getattr(nessfold.pipeline, name, None))]
    assert missing == []
