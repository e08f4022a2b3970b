"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the boundary: the stage names
that `nessfold.pipeline` resolves at call time are swapped for wrappers that
open a span, and the dense kernels the tensor layer calls (`numpy.linalg.svd`,
`numpy.linalg.qr`, `scipy.linalg.svd`) are swapped for counters that charge
each call to the innermost open span.  Nothing under `src/` changes.

Tracing is loud: installing fails if a wrapped name is missing, and
`Tracer.require` fails if a layer the workload runs never opened a span, so a
refactor cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# stage name in nessfold.pipeline -> (layer, per-layer metric its self time adds to)
STAGES = {
    "build_kitaev": ("model", "model.s"),
    "end_baths": ("model", "model.s"),
    "build_liouvillian": ("liouvillian", "liouvillian.s"),
    "decompose": ("spectral", "spectral.decompose_s"),
    "stable_projector": ("spectral", "spectral.stack_s"),
    "build_stack": ("spectral", "spectral.stack_s"),
    "orthogonality_residual": ("spectral", "spectral.stack_s"),
    "fold": ("folding", "folding.s"),
    "product_state": ("tns", "tns.replay_s"),
    "apply_inverse_sequence": ("tns", "tns.replay_s"),
    "normalize_vacuum": ("tns", "tns.replay_s"),
    "build_report": ("observables", "observables.s"),
    "solve": ("pipeline", "pipeline.self_s"),
    "solve_end_bath": ("pipeline", "pipeline.self_s"),
}

# (module, attribute, kind): dense kernels counted inside the open span
KERNELS = (
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "qr", "qr"),
    ("scipy.linalg", "svd", "svd_retry"),  # nessfold.tns falls back to it when gesdd fails
)


class TraceError(RuntimeError):
    """A wrapped name is missing or a layer the workload runs recorded nothing."""


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class KernelCall:
    kind: str
    span: int | None
    shape: tuple
    is_complex: bool
    seconds: float


@dataclass
class Tracer:
    """In-memory spans and kernel calls; `request` tags every span of one solve."""

    spans: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    request: int = -1
    _open: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _span_wrapper(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(
                id=len(self.spans),
                parent=None if parent is None else parent.id,
                request=self.request,
                layer=layer,
                name=name,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._open.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        return wrapper

    def _kernel_wrapper(self, kind: str, fn):
        def wrapper(a, *args, **kwargs):
            span = self._open[-1].id if self._open else None
            t0 = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.kernels.append(
                    KernelCall(
                        kind=kind,
                        span=span,
                        shape=np.shape(a),
                        is_complex=np.iscomplexobj(a),
                        seconds=time.perf_counter() - t0,
                    )
                )

        return wrapper

    def install(self, pipeline_module) -> None:
        """Swap in the wrappers; raises TraceError before touching anything if a name is missing."""
        targets = []
        for name, (layer, _) in STAGES.items():
            if not callable(getattr(pipeline_module, name, None)):
                raise TraceError(f"{pipeline_module.__name__}.{name} is missing; cannot trace layer {layer}")
            targets.append((pipeline_module, name, self._span_wrapper(layer, name, getattr(pipeline_module, name))))
        for modname, attr, kind in KERNELS:
            mod = importlib.import_module(modname)
            if not callable(getattr(mod, attr, None)):
                raise TraceError(f"{modname}.{attr} is missing; cannot count {kind} calls")
            targets.append((mod, attr, self._kernel_wrapper(kind, getattr(mod, attr))))
        for mod, attr, wrapper in targets:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans.clear()
        self.kernels.clear()

    def require(self, layers) -> None:
        """Fail unless every layer in `layers` opened at least one span."""
        fired = {s.layer for s in self.spans}
        missing = sorted(set(layers) - fired)
        if missing:
            raise TraceError(f"layers never traced on this workload: {', '.join(missing)}")

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "parent": s.parent, "request": s.request, "layer": s.layer, "name": s.name,
                 "start": s.start, "end": s.end, "self_s": s.self_s}
                for s in self.spans
            ],
            "kernels": [
                {"kind": k.kind, "span": k.span, "shape": list(k.shape), "complex": k.is_complex, "seconds": k.seconds}
                for k in self.kernels
            ],
        }


def svd_flops(shape: tuple, is_complex: bool) -> float:
    """Computed (not counted) flops of a thin SVD: Golub-Van Loan R-SVD, 6mn^2 + 20n^3, m >= n.

    A complex multiply-add costs four real ones, so complex input counts 4x.
    """
    if len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    flops = 6.0 * m * n * n + 20.0 * n ** 3
    return 4.0 * flops if is_complex else flops


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times and tns kernel counts of the spans recorded so far."""
    out = dict.fromkeys(sorted({metric for _, metric in STAGES.values()}), 0.0)
    for s in tracer.spans:
        out[STAGES[s.name][1]] += s.self_s
    out.update({"tns.svd_s": 0.0, "tns.svd_calls": 0, "tns.svd_flops": 0.0, "tns.svd_retries": 0,
                "tns.qr_s": 0.0, "tns.qr_calls": 0})
    in_tns = {s.id for s in tracer.spans if s.layer == "tns"}
    for k in tracer.kernels:
        if k.span not in in_tns:
            continue
        if k.kind == "qr":
            out["tns.qr_s"] += k.seconds
            out["tns.qr_calls"] += 1
        else:
            out["tns.svd_s"] += k.seconds
            out["tns.svd_calls"] += 1
            out["tns.svd_flops"] += svd_flops(k.shape, k.is_complex)
            out["tns.svd_retries"] += k.kind == "svd_retry"
    # contraction, gauge bookkeeping and per-gate Python overhead
    out["tns.other_s"] = out["tns.replay_s"] - out["tns.svd_s"] - out["tns.qr_s"]
    return out
