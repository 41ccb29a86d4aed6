"""Serving telemetry: a read-only view over the engine's metrics registry.

Latencies are the *modelled* kernel times (the library's calibrated
A100 cost model) — every request in a batch experiences its batch's
launch time. Throughput comes in two flavours: modelled (requests per
second of modelled GPU busy time, the number a real deployment would
see from the device) and wall (requests per second of host wall time in
this process, dominated by the Python execution of the kernels).

The engine publishes each served batch once, into its
:class:`~repro.obs.metrics.MetricsRegistry` (:func:`publish_batch`);
nothing here stores a measurement. :class:`Telemetry` projects the
registry's labelled families along two axes: per *session* (the
serving view) and per ``backend@device`` (the runtime view) — the same
axes the autotuner sweeps on, so an offline sweep report and a live
serving report line up column for column. Admission-control
rejections are counted per session alongside the served requests.
Percentiles are the registry's bucket estimates
(:meth:`~repro.obs.metrics.Histogram.quantile`), the same numbers
``BENCH_serve.json``, ``repro obs summary`` and the SLO grades report.

:func:`plan_traffic` is the third projection, per *plan key*: the
tuning view the :mod:`repro.autotune.scheduler` makes re-tuning
decisions from. It reads a registry dump, so a live engine's registry
and a metrics file another process exported
(:func:`repro.obs.export.write_snapshot`) feed the same re-tune cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.obs import names
from repro.obs.metrics import MetricsRegistry, merge_histograms, select


def publish_batch(
    metrics: MetricsRegistry,
    session: str,
    modelled_time_s: float,
    queue_waits_s: Sequence[float],
    *,
    backend: str = "",
    device: str = "",
    plan_key: str | None = None,
    predicted_time_s: float | None = None,
    launches: int = 1,
    wall_time_s: float | None = None,
) -> None:
    """Publish one batched launch serving ``len(queue_waits_s)`` requests.

    ``backend``/``device`` attribute the launch to one runtime
    execution stack; batches published without them only show up in
    the per-session view. ``plan_key`` attributes it to the serving
    plan that routed it (with ``predicted_time_s``, the plan's cost
    estimate) — the per-plan view the re-tuning scheduler consumes.
    ``launches`` is how many kernel launches ``modelled_time_s`` spans
    (SDDMM dispatches execute item by item), so observed per-launch
    time stays comparable to the plan's estimate. ``wall_time_s`` is the host wall
    time of the batch execution; when given, each rider's wall latency
    — queue wait + execution — feeds ``repro_request_wall_seconds``.
    """
    n = len(queue_waits_s)
    labels = {"session": session, "backend": backend or "", "device": device or ""}
    batch = {**labels, "plan": plan_key or ""}
    metrics.counter(names.REQUESTS, batch).inc(n)
    metrics.counter(names.BATCHES, batch).inc()
    metrics.counter(names.LAUNCHES, batch).inc(max(1, launches))
    metrics.counter(names.MODELLED_BUSY, batch).inc(modelled_time_s)
    metrics.histogram(names.BATCH_SIZE, labels).observe(n)
    modelled = metrics.histogram(names.REQUEST_MODELLED, labels)
    waits = metrics.histogram(names.QUEUE_WAIT, labels)
    wall = (
        metrics.histogram(names.REQUEST_WALL, labels)
        if wall_time_s is not None else None
    )
    for w in queue_waits_s:
        modelled.observe(modelled_time_s)
        waits.observe(w)
        if wall is not None:
            wall.observe(w + wall_time_s)
    if plan_key is not None and predicted_time_s is not None:
        metrics.gauge(names.PLAN_PREDICTED, {"plan": plan_key}).set(
            predicted_time_s
        )


@dataclass(frozen=True)
class LatencySummary:
    """Aggregated view of one session (or the whole engine)."""

    requests: int
    batches: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch_size: float
    mean_queue_wait_ms: float
    modelled_busy_s: float
    modelled_throughput_rps: float
    wall_s: float
    wall_throughput_rps: float

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_batch_size": self.mean_batch_size,
            "mean_queue_wait_ms": self.mean_queue_wait_ms,
            "modelled_busy_s": self.modelled_busy_s,
            "modelled_throughput_rps": self.modelled_throughput_rps,
            "wall_s": self.wall_s,
            "wall_throughput_rps": self.wall_throughput_rps,
        }


#: the per-plan counters :func:`plan_traffic` reads, by field name
_PLAN_COUNTERS = (
    ("requests", names.REQUESTS),
    ("batches", names.BATCHES),
    ("launches", names.LAUNCHES),
    ("modelled_busy_s", names.MODELLED_BUSY),
)


def _total(doc: Mapping[str, dict], name: str, match: Mapping[str, str]) -> float:
    return sum(float(s["value"]) for s in select(doc, name, match))


def plan_traffic(
    doc: Mapping[str, dict], since: Mapping[str, dict] | None = None
) -> dict[str, dict]:
    """Per-plan traffic in one registry dump (:meth:`MetricsRegistry.to_dict`).

    Each plan key that routed a batch maps to its ``requests``,
    ``batches``, ``launches`` and ``modelled_busy_s`` totals, the
    runtime stack that served it (``backend``/``device``), the plan's
    recorded cost estimate (``predicted_time_s``, 0 when none was
    published).

    ``since`` maps plan keys to an earlier result of this function:
    those keys count only the traffic recorded after it, and drop out
    until they route another batch. The re-tuning scheduler rebases a
    key that way when a promotion changes its plan, so regression
    checks see only post-promotion traffic.
    """
    totals: dict[str, dict] = {}
    for field, name in _PLAN_COUNTERS:
        for s in select(doc, name):
            labels = s["labels"]
            if not labels.get("plan"):
                continue
            p = totals.setdefault(labels["plan"], {
                "backend": labels.get("backend", ""),
                "device": labels.get("device", ""),
            })
            p[field] = p.get(field, 0) + float(s["value"])
    since = since or {}
    out = {}
    for key, p in sorted(totals.items()):
        base = since.get(key, {})
        delta = {
            field: p.get(field, 0) - base.get(field, 0)
            for field, _ in _PLAN_COUNTERS
        }
        if delta["batches"] <= 0:
            continue
        predicted = select(doc, names.PLAN_PREDICTED, {"plan": key})
        out[key] = {
            "requests": int(delta["requests"]),
            "batches": int(delta["batches"]),
            "launches": int(delta["launches"]),
            "modelled_busy_s": delta["modelled_busy_s"],
            "predicted_time_s": (
                float(predicted[0]["value"]) if predicted else 0.0
            ),
            "backend": p["backend"],
            "device": p["device"],
        }
    return out


class Telemetry:
    """Read-only serving views over one :class:`MetricsRegistry`.

    Every call reads the registry's current state (one
    :meth:`~MetricsRegistry.to_dict` dump, so a report is internally
    consistent) and projects it by label. The view keeps no
    measurements — only its start time (for wall throughput).
    ``metrics`` defaults to a fresh registry.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._started_at = time.monotonic()

    # -- projections over one registry dump ------------------------------
    def _summarize(
        self, doc: Mapping[str, dict], match: Mapping[str, str]
    ) -> LatencySummary:
        """Aggregate every series whose labels include ``match``."""
        requests = int(_total(doc, names.REQUESTS, match))
        wall = time.monotonic() - self._started_at
        if requests == 0:
            return LatencySummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, wall, 0.0)
        batches = int(_total(doc, names.BATCHES, match))
        busy = _total(doc, names.MODELLED_BUSY, match)
        latency = merge_histograms(select(doc, names.REQUEST_MODELLED, match))
        waits = merge_histograms(select(doc, names.QUEUE_WAIT, match))
        return LatencySummary(
            requests=requests,
            batches=batches,
            p50_ms=latency.quantile(0.50) * 1e3,
            p95_ms=latency.quantile(0.95) * 1e3,
            p99_ms=latency.quantile(0.99) * 1e3,
            mean_batch_size=requests / batches,
            mean_queue_wait_ms=waits.mean * 1e3,
            modelled_busy_s=busy,
            modelled_throughput_rps=requests / busy if busy > 0 else 0.0,
            wall_s=wall,
            wall_throughput_rps=requests / wall if wall > 0 else 0.0,
        )

    @staticmethod
    def _served(doc: Mapping[str, dict]) -> list[str]:
        return sorted({s["labels"]["session"] for s in select(doc, names.REQUESTS)})

    @staticmethod
    def _pairs(doc: Mapping[str, dict]) -> list[tuple[str, str]]:
        return sorted({
            (s["labels"]["backend"], s["labels"]["device"])
            for s in select(doc, names.REQUESTS)
            if s["labels"].get("backend") and s["labels"].get("device")
        })

    @staticmethod
    def _rejections(doc: Mapping[str, dict]) -> dict[str, int]:
        return {
            s["labels"]["session"]: int(s["value"])
            for s in select(doc, names.REJECTIONS)
            if "session" in s["labels"]
        }

    # -- the public views -------------------------------------------------
    def rejections(self, session: str | None = None) -> int:
        """Rejected requests for one session, or in total."""
        rejected = self._rejections(self.metrics.to_dict())
        if session is None:
            return sum(rejected.values())
        return rejected.get(session, 0)

    def sessions(self) -> list[str]:
        """Every session seen — including ones whose every request was
        rejected, so a fully-throttled session stays visible in the
        report instead of vanishing while the TOTAL rejected count
        grows."""
        doc = self.metrics.to_dict()
        return sorted(set(self._served(doc)) | set(self._rejections(doc)))

    def backends(self) -> list[tuple[str, str]]:
        """Every ``(backend, device)`` pair that served at least one batch."""
        return self._pairs(self.metrics.to_dict())

    def summary(self, session: str | None = None) -> LatencySummary:
        """Aggregate one session, or everything when ``session`` is None."""
        match = {} if session is None else {"session": session}
        return self._summarize(self.metrics.to_dict(), match)

    def backend_summary(self, backend: str, device: str) -> LatencySummary:
        """Aggregate everything one ``(backend, device)`` pair served."""
        return self._summarize(
            self.metrics.to_dict(), {"backend": backend, "device": device}
        )

    def render(self, plan_cache_stats: dict | None = None) -> str:
        """Plain-text report (the ``--demo`` output)."""
        from repro.bench.report import render_table

        doc = self.metrics.to_dict()
        rejected = self._rejections(doc)
        headers = [
            "session", "requests", "rejected", "batches", "mean batch",
            "p50 ms", "p95 ms", "p99 ms", "model req/s",
        ]
        rows = []
        for name in sorted(set(self._served(doc)) | set(rejected)) + [None]:
            s = self._summarize(doc, {} if name is None else {"session": name})
            rows.append([
                name if name is not None else "TOTAL",
                s.requests,
                rejected.get(name, 0) if name is not None else sum(rejected.values()),
                s.batches,
                f"{s.mean_batch_size:.2f}",
                f"{s.p50_ms:.4f}",
                f"{s.p95_ms:.4f}",
                f"{s.p99_ms:.4f}",
                f"{s.modelled_throughput_rps:.0f}",
            ])
        lines = [render_table(headers, rows, title="-- serving telemetry --")]
        pairs = self._pairs(doc)
        if pairs:
            brows = []
            for backend, device in pairs:
                s = self._summarize(doc, {"backend": backend, "device": device})
                brows.append([
                    backend,
                    device,
                    s.requests,
                    s.batches,
                    f"{s.p50_ms:.4f}",
                    f"{s.p95_ms:.4f}",
                    f"{s.p99_ms:.4f}",
                    f"{s.modelled_throughput_rps:.0f}",
                ])
            lines.append(render_table(
                ["backend", "device", "requests", "batches",
                 "p50 ms", "p95 ms", "p99 ms", "model req/s"],
                brows, title="-- per-backend telemetry --",
            ))
        total = self._summarize(doc, {})
        lines.append(
            f"wall: {total.wall_s:.2f}s ({total.wall_throughput_rps:.0f} req/s host); "
            f"modelled GPU busy: {total.modelled_busy_s * 1e3:.3f} ms"
        )
        if plan_cache_stats is not None:
            lines.append(
                "plan cache: {entries} plans, {hits} hits / {misses} misses "
                "(hit rate {hit_rate:.1%})".format(**plan_cache_stats)
            )
        return "\n".join(lines)
