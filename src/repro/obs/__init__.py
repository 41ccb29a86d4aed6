"""repro.obs — request-scoped tracing, metrics, and exporters.

The observability subsystem the serving stack publishes into:

- :mod:`repro.obs.trace` — a :class:`Tracer` handing out per-request
  span trees (admission → queue → plan-resolution → kernel-launch),
  exported as deterministic JSON lines.
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms with constant memory.
- :mod:`repro.obs.names` — the standard metric contract (the table in
  ``docs/observability.md``).
- :mod:`repro.obs.export` — JSON-snapshot and Prometheus-text
  exporters, surfaced by the ``repro obs`` CLI.
- :mod:`repro.obs.profile` — self-time attribution over span trees
  (what ``repro obs profile`` prints).
- :mod:`repro.obs.health` — declarative :class:`SloSpec` objectives and
  burn-rate evaluation over any registry, producing probe-style
  :class:`HealthReport` grades.

See ``docs/observability.md`` for the span model and metric names.
"""

from repro.obs.export import (
    load_json,
    parse_prometheus,
    render_json,
    render_prometheus,
    write_snapshot,
)
from repro.obs.health import (
    DEFAULT_SLOS,
    HealthEvaluator,
    HealthReport,
    SloSpec,
    evaluate_registry,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.names import STANDARD_METRICS, declare_standard
from repro.obs.profile import attribute
from repro.obs.trace import NULL_SPAN, NULL_TRACE, RequestTrace, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "HealthEvaluator",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACE",
    "RequestTrace",
    "STANDARD_METRICS",
    "SloSpec",
    "Span",
    "Tracer",
    "attribute",
    "declare_standard",
    "evaluate_registry",
    "get_registry",
    "load_json",
    "parse_prometheus",
    "render_json",
    "render_prometheus",
    "set_registry",
    "write_snapshot",
]
