"""SLO evaluation: is the fleet healthy against a declared target?

Metrics (:mod:`repro.obs.metrics`) say what the engine *did*; this
module says whether that is *acceptable*. Operators declare objectives
as :class:`SloSpec` values — a latency quantile bound, a rejection-rate
ceiling, a queue-saturation ceiling, a plan-cache hit-rate floor — and
an evaluator reads any :class:`~repro.obs.metrics.MetricsRegistry`
(live, or rebuilt from a snapshot) and grades each objective
``healthy`` / ``degraded`` / ``breach``.

Grading follows the SRE error-budget **burn rate** convention: every
objective implies a budget (a latency p95 objective allows 5% of
requests over the threshold; a 99% hit-rate floor allows 1% misses),
and the burn rate is consumption divided by budget — ``1.0`` means
burning exactly the budget, ``2.0`` twice as fast. A spec's
``degraded_burn`` / ``breach_burn`` thresholds turn the number into a
status, and the worst objective decides the report's overall status —
which is also its probe-style :meth:`~HealthReport.exit_code`
(0 / 1 / 2), so ``repro obs health --probe`` slots straight into a
readiness check.

Two evaluation modes:

- :func:`evaluate_registry` — one-shot, over the registry's full
  lifetime totals. What the CLI and the replay bench use on a
  finished snapshot.
- :class:`HealthEvaluator` — rolling window. Each
  :meth:`~HealthEvaluator.evaluate` call snapshots the registry and
  grades the *delta* against the oldest snapshot inside ``window_s``,
  so a long-running engine is judged on recent traffic, not on its
  lifetime averages. This is what the re-tune scheduler holds: a
  burning latency objective raises the ``slo_breach`` trigger in
  :mod:`repro.autotune.policy`.

Evaluations publish back into the registry under the ``repro_slo_*``
names, so the health of the health-checker is itself observable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ConfigError
from repro.ioutil import atomic_write_text
from repro.obs import names
from repro.obs.metrics import Histogram, MetricsRegistry, merge_histograms, select

__all__ = [
    "DEFAULT_SLOS",
    "HealthEvaluator",
    "HealthReport",
    "ObjectiveResult",
    "SloSpec",
    "evaluate_registry",
]

#: schema version stamped into exported health reports
HEALTH_SCHEMA = 1

_KINDS = ("latency", "rejection_rate", "queue_depth", "cache_hit_rate")

#: which metric each kind reads when the spec does not override it
_DEFAULT_METRIC = {
    "latency": names.REQUEST_WALL,
    "rejection_rate": names.REJECTIONS,
    "queue_depth": names.QUEUE_DEPTH,
    "cache_hit_rate": names.CACHE_HITS,
}

_STATUS_ORDER = ("healthy", "degraded", "breach")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over the standard metrics contract.

    ``kind`` picks the burn-rate formula and the default source metric:

    - ``latency`` — at most ``1 - quantile`` of requests may take
      longer than ``objective`` seconds (default source:
      ``repro_request_wall_seconds``);
    - ``rejection_rate`` — at most ``objective`` of submitted requests
      may be shed by admission control;
    - ``queue_depth`` — the queue gauge must stay at or below
      ``objective`` waiting requests;
    - ``cache_hit_rate`` — at least ``objective`` of plan lookups must
      be answered warm.

    ``labels`` filters the source metric's samples (a sample matches
    when its label set contains every filter pair), which is how a
    per-request-class objective targets one session, or a latency
    objective targets one backend's ``repro_kernel_wall_seconds``.
    """

    name: str
    kind: str
    objective: float
    quantile: float = 0.95
    metric: str = ""
    labels: tuple[tuple[str, str], ...] = ()
    degraded_burn: float = 1.0
    breach_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown SLO kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.objective <= 0:
            raise ConfigError("objective must be positive")
        if self.kind in ("rejection_rate",) and not self.objective < 1.0:
            raise ConfigError("rejection_rate objective must be < 1")
        if self.kind == "cache_hit_rate" and not self.objective < 1.0:
            raise ConfigError("cache_hit_rate objective must be < 1")
        if self.kind == "latency" and not 0.0 < self.quantile < 1.0:
            raise ConfigError("quantile must be in (0, 1)")
        if not 0.0 < self.degraded_burn <= self.breach_burn:
            raise ConfigError(
                "need 0 < degraded_burn <= breach_burn, got "
                f"{self.degraded_burn} / {self.breach_burn}"
            )
        # normalize a dict-shaped labels filter into the frozen form
        if isinstance(self.labels, Mapping):
            object.__setattr__(
                self, "labels",
                tuple(sorted((str(k), str(v)) for k, v in self.labels.items())),
            )

    @property
    def source_metric(self) -> str:
        return self.metric or _DEFAULT_METRIC[self.kind]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "quantile": self.quantile,
            "metric": self.source_metric,
            "labels": dict(self.labels),
            "degraded_burn": self.degraded_burn,
            "breach_burn": self.breach_burn,
        }


#: the out-of-the-box contract ``repro obs health`` and the replay
#: bench evaluate when no spec file is given — deliberately loose
#: (these grade a healthy local replay as healthy; a deployment tunes
#: its own numbers)
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(name="wall-p95", kind="latency", objective=0.25, quantile=0.95),
    SloSpec(name="rejection-rate", kind="rejection_rate", objective=0.05),
    SloSpec(name="queue-saturation", kind="queue_depth", objective=64.0),
    SloSpec(name="plan-cache-hit-rate", kind="cache_hit_rate", objective=0.50),
)


# -- reading a registry snapshot ---------------------------------------

class _View:
    """Read-side adapter over a registry's :meth:`to_dict` form.

    Working on the dict form (not live instruments) makes one code path
    serve live registries, loaded snapshots, and windowed deltas alike.
    """

    def __init__(self, doc: Mapping[str, dict]) -> None:
        self._doc = doc

    def _samples(self, name: str, spec: SloSpec) -> list[dict]:
        return select(self._doc, name, dict(spec.labels))

    def counter_total(self, name: str, spec: SloSpec) -> float:
        return sum(float(s.get("value", 0.0)) for s in self._samples(name, spec))

    def gauge_max(self, name: str, spec: SloSpec) -> float | None:
        values = [float(s.get("value", 0.0)) for s in self._samples(name, spec)]
        return max(values) if values else None

    def histogram_merged(self, name: str, spec: SloSpec) -> Histogram | None:
        """Samples of one histogram family merged into a single
        distribution; ``None`` while it holds no observations."""
        merged = merge_histograms(self._samples(name, spec))
        return merged if merged is not None and merged.count else None


def _delta_doc(current: Mapping[str, dict], base: Mapping[str, dict]) -> dict:
    """``current - base`` for the cumulative kinds; gauges stay current.

    Histogram deltas subtract per-bucket counts (layouts are stable for
    a given family); a family or sample absent from ``base`` passes
    through unchanged.
    """
    out: dict = {}
    for name, family in current.items():
        old_family = base.get(name)
        if family.get("kind") == "gauge" or not old_family:
            out[name] = family
            continue
        old_samples = {
            tuple(sorted(s.get("labels", {}).items())): s
            for s in old_family.get("samples", ())
        }
        samples = []
        for s in family.get("samples", ()):
            old = old_samples.get(tuple(sorted(s.get("labels", {}).items())))
            if old is None:
                samples.append(s)
            elif family.get("kind") == "counter":
                samples.append({
                    "labels": s.get("labels", {}),
                    "value": max(0.0, float(s["value"]) - float(old["value"])),
                })
            else:
                counts = [
                    max(0, int(c) - int(o))
                    for c, o in zip(s["counts"], old["counts"])
                ]
                samples.append({
                    "labels": s.get("labels", {}),
                    "buckets": s["buckets"],
                    "counts": counts,
                    "count": max(0, int(s["count"]) - int(old["count"])),
                    "sum": max(0.0, float(s["sum"]) - float(old["sum"])),
                })
        out[name] = {**family, "samples": samples}
    return out


def _fraction_above(hist: Histogram, threshold: float) -> float:
    """Fraction of a merged histogram's observations above ``threshold``.

    Buckets fully above the threshold count whole; the straddling
    bucket contributes linearly (same interpolation the quantile
    estimate uses).
    """
    buckets = hist.buckets
    counts = hist.counts
    total = hist.count
    above = 0.0
    lo = 0.0
    for i, n in enumerate(counts):
        hi = buckets[i] if i < len(buckets) else math.inf
        if n:
            if lo >= threshold:
                above += n
            elif hi > threshold:
                if math.isinf(hi):
                    above += n  # overflow bucket: assume above
                else:
                    above += n * (hi - threshold) / (hi - lo)
        lo = hi
    return above / total if total else 0.0


# -- results -----------------------------------------------------------

@dataclass
class ObjectiveResult:
    """One objective's grade: the burn rate and what it means."""

    spec: SloSpec
    burn: float
    status: str
    detail: str
    observed: float | None = None  # the measured quantity, spec units

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "burn": self.burn,
            "status": self.status,
            "detail": self.detail,
            "observed": self.observed,
        }


@dataclass
class HealthReport:
    """Every objective's grade plus the worst-of overall status."""

    results: list[ObjectiveResult] = field(default_factory=list)
    window_s: float | None = None

    @property
    def status(self) -> str:
        worst = 0
        for r in self.results:
            worst = max(worst, _STATUS_ORDER.index(r.status))
        return _STATUS_ORDER[worst]

    @property
    def breaches(self) -> list[ObjectiveResult]:
        return [r for r in self.results if r.status == "breach"]

    def burning(self, kind: str | None = None) -> list[ObjectiveResult]:
        """Objectives at degraded-or-worse, optionally of one kind."""
        return [
            r for r in self.results
            if r.status != "healthy" and (kind is None or r.spec.kind == kind)
        ]

    def exit_code(self) -> int:
        """Probe-style: 0 healthy, 1 degraded, 2 breach."""
        return _STATUS_ORDER.index(self.status)

    def to_dict(self) -> dict:
        return {
            "schema": HEALTH_SCHEMA,
            "status": self.status,
            "window_s": self.window_s,
            "objectives": [r.to_dict() for r in self.results],
        }

    def save(self, path: "str | Path") -> Path:
        """Atomically write the JSON form; returns the path written."""
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )


def _evaluate_spec(view: _View, spec: SloSpec) -> ObjectiveResult:
    if spec.kind == "latency":
        hist = view.histogram_merged(spec.source_metric, spec)
        if hist is None:
            return ObjectiveResult(
                spec, 0.0, "healthy", "no observations yet", None
            )
        violating = _fraction_above(hist, spec.objective)
        budget = 1.0 - spec.quantile
        burn = violating / budget
        detail = (
            f"{violating:.2%} of requests over {spec.objective:g}s "
            f"(budget {budget:.2%} at p{spec.quantile * 100:g})"
        )
        return ObjectiveResult(spec, burn, _grade(spec, burn), detail, violating)
    if spec.kind == "rejection_rate":
        rejected = view.counter_total(spec.source_metric, spec)
        served = view.counter_total(names.REQUESTS, spec)
        submitted = rejected + served
        if submitted == 0:
            return ObjectiveResult(spec, 0.0, "healthy", "no traffic yet", None)
        rate = rejected / submitted
        burn = rate / spec.objective
        detail = (
            f"{rate:.2%} of {submitted:g} submissions shed "
            f"(objective <= {spec.objective:.2%})"
        )
        return ObjectiveResult(spec, burn, _grade(spec, burn), detail, rate)
    if spec.kind == "queue_depth":
        depth = view.gauge_max(spec.source_metric, spec)
        if depth is None:
            return ObjectiveResult(spec, 0.0, "healthy", "no queue yet", None)
        burn = depth / spec.objective
        detail = f"queue depth {depth:g} (objective <= {spec.objective:g})"
        return ObjectiveResult(spec, burn, _grade(spec, burn), detail, depth)
    # cache_hit_rate
    hits = view.counter_total(spec.source_metric, spec)
    misses = view.counter_total(names.CACHE_MISSES, spec)
    lookups = hits + misses
    if lookups == 0:
        return ObjectiveResult(spec, 0.0, "healthy", "no lookups yet", None)
    hit_rate = hits / lookups
    burn = (1.0 - hit_rate) / (1.0 - spec.objective)
    detail = (
        f"hit rate {hit_rate:.2%} over {lookups:g} lookups "
        f"(floor {spec.objective:.2%})"
    )
    return ObjectiveResult(spec, burn, _grade(spec, burn), detail, hit_rate)


def _grade(spec: SloSpec, burn: float) -> str:
    if burn < spec.degraded_burn:
        return "healthy"
    if burn < spec.breach_burn:
        return "degraded"
    return "breach"


def _publish(report: HealthReport, registry: MetricsRegistry) -> None:
    for r in report.results:
        labels = {"objective": r.spec.name}
        registry.counter(names.SLO_EVALUATIONS, labels).inc()
        registry.gauge(names.SLO_BURN_RATE, labels).set(r.burn)
        if r.status == "breach":
            registry.counter(names.SLO_BREACHES, labels).inc()


def evaluate_registry(
    registry: "MetricsRegistry | Mapping[str, dict]",
    specs: Iterable[SloSpec] = DEFAULT_SLOS,
    *,
    publish: bool = False,
) -> HealthReport:
    """One-shot evaluation over a registry's lifetime totals.

    ``registry`` may be live or the dict form a snapshot loads to.
    ``publish=True`` writes the ``repro_slo_*`` metrics back (requires
    a live registry).
    """
    live = isinstance(registry, MetricsRegistry)
    doc = registry.to_dict() if live else registry
    view = _View(doc)
    report = HealthReport(results=[_evaluate_spec(view, s) for s in specs])
    if publish:
        if not live:
            raise ConfigError("publish=True needs a live MetricsRegistry")
        _publish(report, registry)
    return report


class HealthEvaluator:
    """Rolling-window evaluation of a live registry.

    Each :meth:`evaluate` call snapshots the registry, drops snapshots
    older than ``window_s``, and grades the counter/histogram *delta*
    between now and the oldest retained snapshot (gauges grade at
    their current value). ``now`` is injectable so tests and schedulers
    control the clock; callers pass a monotonic timestamp.
    """

    def __init__(
        self,
        specs: Iterable[SloSpec] = DEFAULT_SLOS,
        *,
        window_s: float = 300.0,
        publish: bool = True,
    ) -> None:
        if window_s <= 0:
            raise ConfigError("window_s must be positive")
        self.specs = tuple(specs)
        self.window_s = float(window_s)
        self.publish = publish
        self._snapshots: list[tuple[float, dict]] = []

    def evaluate(
        self, registry: MetricsRegistry, *, now: float
    ) -> HealthReport:
        doc = registry.to_dict()
        # the base is the snapshot closest to (now - window_s) from the
        # far side: keep the newest out-of-window snapshot so the delta
        # always spans ~window_s, never collapses to lifetime totals
        cutoff = now - self.window_s
        inside = [(t, d) for t, d in self._snapshots if t >= cutoff]
        outside = [(t, d) for t, d in self._snapshots if t < cutoff]
        self._snapshots = (outside[-1:] or []) + inside
        base = self._snapshots[0][1] if self._snapshots else {}
        self._snapshots.append((now, doc))
        view = _View(_delta_doc(doc, base))
        report = HealthReport(
            results=[_evaluate_spec(view, s) for s in self.specs],
            window_s=self.window_s,
        )
        if self.publish:
            _publish(report, registry)
        return report
