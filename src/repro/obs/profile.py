"""Self-time attribution: where time goes *inside* a span.

The tracer (:mod:`repro.obs.trace`) answers "which phase was slow for
this request"; :func:`attribute` answers the next question an operator
asks. It walks finished :class:`~repro.obs.trace.RequestTrace` span
trees (live objects or their exported dict form) and charges each span
its *self* time — wall minus the wall of its children — aggregated per
``phase × backend × plan key``. A phase that is slow only because a
child is slow attributes nothing to itself, so the table points at the
code that actually burned the time. ``repro obs profile`` prints it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["attribute"]


def attribute(traces: Iterable) -> list[dict]:
    """Self-time table from finished request traces.

    ``traces`` may be live :class:`~repro.obs.trace.RequestTrace`
    objects (``Tracer.finished()``) or their exported dict form (one
    parsed line of a ``.trace.jsonl`` file). Each span is charged its
    **self** time — wall minus the wall of its child spans — and
    aggregated per ``(phase, backend, plan_key)``. Rows come back
    sorted by total self time, descending::

        rows = attribute(tracer.finished())
        rows[0]  # {"phase": ..., "backend": ..., "plan_key": ...,
                 #  "count": ..., "self_s": ..., "wall_s": ...}
    """
    table: dict[tuple[str, str, str], dict] = {}
    for trace in traces:
        doc = trace if isinstance(trace, dict) else trace.to_dict()
        if doc is None:
            continue
        spans = doc.get("spans", [])
        child_wall: dict[int | None, float] = {}
        for span in spans:
            parent = span.get("parent_id")
            if parent is not None:
                child_wall[parent] = (
                    child_wall.get(parent, 0.0) + float(span.get("wall_s", 0.0))
                )
        for span in spans:
            wall = float(span.get("wall_s", 0.0))
            self_s = max(0.0, wall - child_wall.get(span.get("span_id"), 0.0))
            attrs = span.get("attrs") or {}
            key = (
                str(span.get("name", "?")),
                str(attrs.get("backend") or "-"),
                str(attrs.get("plan_key") or "-"),
            )
            row = table.setdefault(key, {
                "phase": key[0], "backend": key[1], "plan_key": key[2],
                "count": 0, "self_s": 0.0, "wall_s": 0.0,
            })
            row["count"] += 1
            row["self_s"] += self_s
            row["wall_s"] += wall
    return sorted(
        table.values(),
        key=lambda r: (-r["self_s"], r["phase"], r["backend"], r["plan_key"]),
    )
