"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metric *families*; each family
holds one instrument per label set (Prometheus semantics, without the
client-library dependency). Counters and gauges are plain numbers;
histograms are **fixed-bucket** — an observation lands in one of a
finite set of upper-bound buckets plus a running count/sum, so a
long-running engine's memory stays constant no matter how many requests
it serves, and p50/p95/p99 come from linear interpolation inside the
bucket rather than an unbounded value list.

Each serving engine publishes into its own registry (a fresh one
unless ``metrics=`` injects one; one-shot :func:`repro.api.run` calls
publish into the process-wide :func:`get_registry`), and the exporters
in :mod:`repro.obs.export` turn any registry into a JSON snapshot or
Prometheus text. Registries round-trip through :meth:`~MetricsRegistry.
to_dict` / :meth:`~MetricsRegistry.from_dict`, which is how the
``repro obs`` CLI re-renders a snapshot another process exported.

Every reader that aggregates across label sets works on that dict form:
:func:`select` picks a family's samples by label subset and
:func:`merge_histograms` folds histogram samples into one distribution
(the serving telemetry view, the SLO evaluator, the fleet gateway and
the replay bench all merge through it).
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_histograms",
    "select",
    "set_registry",
]

#: default histogram buckets for second-valued observations: ~1 µs to
#: ~16 s in powers of 4 — wide enough for both wall and modelled times
DEFAULT_TIME_BUCKETS_S: tuple[float, ...] = tuple(
    1e-6 * 4**i for i in range(13)
)

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigError(f"counters only go up; inc({n}) is invalid")
        with self._lock:
            self.value += n


class Gauge:
    """A value that can go up and down (queue depth, cooldown keys)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self.value -= n


class Histogram:
    """Fixed-bucket distribution with constant memory.

    ``buckets`` are inclusive upper bounds (an implicit ``+Inf``
    overflow bucket is always appended). :meth:`quantile` interpolates
    linearly inside the winning bucket — the trade the registry makes
    for never holding per-observation state.
    """

    __slots__ = (
        "_lock", "buckets", "counts", "count", "sum", "min", "max",
    )

    def __init__(
        self, lock: threading.Lock, buckets: Iterable[float] | None = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS_S
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError("histogram buckets must be a sorted, non-empty list")
        self._lock = lock
        self.buckets = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.buckets) + 1)  # +1: +Inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            i = 0
            for i, bound in enumerate(self.buckets):  # noqa: B007
                if v <= bound:
                    break
            else:
                i = len(self.buckets)
            self.counts[i] += 1
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` (0..1) quantile from the bucket counts.

        Linear interpolation between the winning bucket's bounds,
        clamped to the observed min/max so the estimate never leaves
        the data's actual range.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            seen = 0
            for i, n in enumerate(self.counts):
                if n == 0:
                    continue
                if seen + n >= rank:
                    lo = self.buckets[i - 1] if i > 0 else self.min
                    hi = self.buckets[i] if i < len(self.buckets) else self.max
                    lo = max(lo, self.min)
                    hi = min(hi, self.max)
                    if hi <= lo or n == 0:
                        return lo
                    frac = (rank - seen) / n
                    return lo + (hi - lo) * frac
                seen += n
            return self.max

    def state(self) -> dict:
        """The JSON-ready state (the sample body of
        :meth:`MetricsRegistry.to_dict`); reads without locking, so the
        caller serializes against concurrent observations."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


def select(
    doc: Mapping[str, dict], name: str, match: Mapping[str, str] | None = None
) -> list[dict]:
    """The samples of family ``name`` in a :meth:`MetricsRegistry.to_dict`
    document whose labels include every ``match`` pair (all of them
    when ``match`` is empty; none when the family is absent)."""
    family = doc.get(name)
    if not family:
        return []
    match = match or {}
    return [
        s for s in family.get("samples", ())
        if all(s.get("labels", {}).get(k) == v for k, v in match.items())
    ]


def merge_histograms(samples: Iterable[Mapping]) -> Histogram | None:
    """Fold histogram samples (the :meth:`MetricsRegistry.to_dict` form)
    into one :class:`Histogram`: bucket counts, count and sum add, and
    min/max take the envelope. ``None`` when ``samples`` is empty; a
    :class:`~repro.errors.ConfigError` when two samples disagree on the
    bucket layout (their counts would not line up)."""
    merged: Histogram | None = None
    for s in samples:
        buckets = tuple(float(b) for b in s["buckets"])
        if merged is None:
            merged = Histogram(threading.Lock(), buckets)
        elif buckets != merged.buckets:
            raise ConfigError(
                f"cannot merge histograms with different bucket layouts: "
                f"{list(merged.buckets)} vs {list(buckets)}"
            )
        merged.counts = [a + int(b) for a, b in zip(merged.counts, s["counts"])]
        merged.count += int(s["count"])
        merged.sum += float(s["sum"])
        if s.get("min") is not None:
            merged.min = min(merged.min, float(s["min"]))
        if s.get("max") is not None:
            merged.max = max(merged.max, float(s["max"]))
    return merged


class _Family:
    """One named metric family: kind, help text, children per label set."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(
        self, name: str, kind: str, help: str, buckets: tuple[float, ...] | None
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """A named, labelled set of counters, gauges and histograms.

    Instruments are created on first access and kept forever (families
    are bounded by the code's metric names and the workload's label
    sets — sessions, backends — not by traffic volume). ``declare``
    creates an *empty* family so exporters list every documented metric
    even before its first observation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- instrument access ---------------------------------------------
    def _family(
        self, name: str, kind: str, help: str,
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ConfigError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            if help and not family.help:
                family.help = help
            if buckets is not None and family.buckets is None:
                # a family declared without an explicit layout adopts
                # the first one offered (how from_dict restores
                # non-default bucket bounds); later conflicting layouts
                # are ignored — children already exist on the first
                if not family.children:
                    family.buckets = buckets
            return family

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Counter:
        family = self._family(name, "counter", help)
        return self._child(family, labels)

    def gauge(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Gauge:
        family = self._family(name, "gauge", help)
        return self._child(family, labels)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        help: str = "",
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        family = self._family(
            name, "histogram", help,
            tuple(buckets) if buckets is not None else None,
        )
        return self._child(family, labels)

    def _child(self, family: _Family, labels: Mapping[str, str] | None):
        key = _label_key(labels)
        with self._lock:
            child = family.children.get(key)
            if child is None:
                if family.kind == "counter":
                    child = Counter(self._lock)
                elif family.kind == "gauge":
                    child = Gauge(self._lock)
                else:
                    child = Histogram(self._lock, family.buckets)
                family.children[key] = child
            return child

    def declare(
        self, name: str, kind: str, help: str = "",
        buckets: Iterable[float] | None = None,
    ) -> None:
        """Register an (empty) family so exporters always name it."""
        if kind not in _KINDS:
            raise ConfigError(f"unknown metric kind {kind!r}")
        self._family(
            name, kind, help,
            tuple(buckets) if buckets is not None else None,
        )

    # -- introspection -------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def kind(self, name: str) -> str:
        with self._lock:
            return self._families[name].kind

    def samples(self, name: str) -> list[tuple[dict, object]]:
        """Every (labels, instrument) pair of one family, label-sorted."""
        with self._lock:
            family = self._families[name]
            return [
                (dict(key), child)
                for key, child in sorted(family.children.items())
            ]

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> dict:
        """A deterministic, JSON-ready snapshot of every instrument."""
        out: dict = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                samples = []
                for key in sorted(family.children):
                    child = family.children[key]
                    state = (
                        {"value": child.value}
                        if isinstance(child, (Counter, Gauge))
                        else child.state()
                    )
                    samples.append({"labels": dict(key), **state})
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output (round-trip)."""
        registry = cls()
        for name, family in d.items():
            kind = family.get("kind")
            if kind not in _KINDS:
                raise ConfigError(f"metric {name!r} has unknown kind {kind!r}")
            help_line = family.get("help", "")
            registry.declare(name, kind, help_line)
            for sample in family.get("samples", ()):
                labels = sample.get("labels") or None
                if kind == "counter":
                    registry.counter(name, labels).inc(float(sample["value"]))
                elif kind == "gauge":
                    registry.gauge(name, labels).set(float(sample["value"]))
                else:
                    src = merge_histograms([sample])
                    h = registry.histogram(name, labels, buckets=src.buckets)
                    h.counts, h.count, h.sum = src.counts, src.count, src.sum
                    h.min, h.max = src.min, src.max
        return registry


#: the process-wide default registry one-shot ``repro.api.run`` calls
#: publish kernel wall times into (engines each own a registry)
_GLOBAL = MetricsRegistry()
_GLOBAL_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous, _GLOBAL = _GLOBAL, registry
    return previous
