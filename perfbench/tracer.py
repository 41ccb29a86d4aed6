"""Span recorder for the traced benchmark phase.

Spans are recorded only from this file, around calls into each layer's
public functions: :meth:`Recorder.install` wraps them in place for the
traced phase and :meth:`Recorder.uninstall` restores the originals.
Nothing inside ``src/`` is changed. A span holds a name, start, end,
parent span (the enclosing span on the same thread) and request id;
spans stay in memory until the run writes them out once at exit.

Span names are ``<layer>.<what>``; the layer is the ``repro`` package
the wrapped function lives in, so self time aggregates per layer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

#: module-level functions, rebound in every ``repro`` module that
#: imported them by name (``from repro.x import f`` copies the binding)
FUNCTIONS = (
    ("formats.to_srbcrs", "repro.formats.convert", "bcrs_to_srbcrs"),
    ("lowp.quantize", "repro.lowp.quantize", "symmetric_quantize"),
    ("kernels.softmax", "repro.kernels.softmax", "sparse_softmax_quantized"),
    ("kernels.softmax", "repro.fastpath.softmax", "sparse_softmax_quantized_fast"),
)

#: methods, wrapped on their defining class
METHODS = (
    ("api.submit", "repro.api.client", "Client", "submit"),
    ("api.prepare", "repro.api.client", "Client", "prepare"),
    ("serve.plan", "repro.serve.planner", "ExecutionPlanner", "plan_spmm"),
    ("serve.plan", "repro.serve.planner", "ExecutionPlanner", "plan_sddmm"),
    ("transformer.forward", "repro.transformer.model",
     "SparseTransformerClassifier", "forward"),
    ("transformer.attention", "repro.transformer.attention",
     "MultiHeadAttention", "forward_quantized"),
    ("transformer.dense", "repro.transformer.layers", "Linear", "forward"),
    ("transformer.dense", "repro.transformer.layers", "LayerNorm", "forward"),
)

#: kernel base classes; ``__call__`` is wrapped on the base and on every
#: loaded subclass that overrides it (the fastpath kernels do)
KERNELS = (
    ("kernels.spmm", "repro.kernels.spmm", "MagicubeSpMM"),
    ("kernels.sddmm", "repro.kernels.sddmm", "MagicubeSDDMM"),
)

#: imported before wrapping so every binding above exists
MODULES = (
    "repro.api.client", "repro.serve.planner", "repro.transformer.model",
    "repro.transformer.attention", "repro.transformer.layers",
    "repro.transformer.serving", "repro.kernels", "repro.fastpath",
    "repro.formats.convert", "repro.lowp.quantize", "repro.core.matrix",
)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Recorder:
    """Collects spans from the wrapped layer entry points."""

    def __init__(self) -> None:
        #: [span id, name, start, end, parent id, request id]
        self.spans: list[list] = []
        #: (span id, op, KernelStats) for every SpMM / SDDMM launch
        self.launches: list[tuple] = []
        #: request id for spans on threads that set none themselves
        #: (engine workers); valid while one request is in flight
        self.shared_request_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self._installed = False

    def set_request(self, request_id: int | None) -> None:
        """Tag spans opened on the calling thread with ``request_id``."""
        self._local.request_id = request_id

    def _wrap(self, name: str, fn, kernel_op: str | None = None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = rec._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == name:
                # a subclass delegating to its base: one call, one span
                return fn(*args, **kwargs)
            span = [
                next(rec._ids), name, time.perf_counter(), 0.0,
                stack[-1][0] if stack else None,
                getattr(local, "request_id", rec.shared_request_id),
            ]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                rec.spans.append(span)
            if kernel_op is not None:
                rec.launches.append((span[0], kernel_op, result.stats))
            return result

        wrapper.__benchmark_original__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        if self._installed:
            raise RuntimeError("recorder already installed")
        for mod in MODULES:
            importlib.import_module(mod)
        for name, mod, attr in FUNCTIONS:
            original = getattr(sys.modules[mod], attr)
            self._rebind(original, self._wrap(name, original))
        for name, mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
        for name, mod, cls_name in KERNELS:
            op = name.split(".")[1]
            for cls in _subclasses(getattr(sys.modules[mod], cls_name)):
                if "__call__" in cls.__dict__:
                    wrapped = self._wrap(name, cls.__dict__["__call__"], op)
                    self._patch(cls, "__call__", wrapped)
        self._installed = True

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped binding (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # modules imported while installed copied a wrapper: unwrap them
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                original = getattr(value, "__benchmark_original__", None)
                if original is not None:
                    setattr(mod, attr, original)
        self._installed = False


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> self time (duration minus its children's durations).

    Children run nested on their parent's thread, so their intervals
    are disjoint and inside the parent's."""
    child = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child.get(sid, 0.0)
        for sid, _, start, end, _, _ in spans
    }


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Layer (``repro`` package) -> total self time in seconds."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for sid, name, *_ in spans:
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + own[sid]
    return out
