"""Keyed, JSON-persistable cache of execution plans.

The cache is the serving layer's memory: the first request of a class
pays the planner search, every later one reuses the stored decision.
Hit/miss counters feed the telemetry (the demo asserts a > 50% hit
rate), and :meth:`save` / :meth:`load` round-trip the whole cache
through JSON so tuned plans survive process restarts.

The JSON file is shared *across processes*: :meth:`save` writes through
a temporary sibling and an atomic ``os.replace`` so a reader never
observes a torn file, and the payload carries a schema version
(2: plan keys carry a ``backend@device`` runtime segment). A file of
any other version is refused like a corrupt one.
"""

from __future__ import annotations

import json
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import PlanCacheError
from repro.ioutil import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner uses us)
    from repro.serve.planner import Plan

#: current schema: plan keys carry a ``backend@device`` segment
_FORMAT_VERSION = 2


class PlanCache:
    """Thread-safe mapping of plan-key strings to :class:`Plan` objects."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._plans: dict[str, "Plan"] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._metrics = None
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            # startup auto-load is forgiving: a corrupt shared cache
            # file degrades to a cold start, never a crashed server
            self.load(self.path, strict=False)

    def bind_metrics(self, registry) -> None:
        """Publish hit/miss/promotion counts into a
        :class:`repro.obs.MetricsRegistry` alongside the local
        counters (the engine binds its registry at construction)."""
        self._metrics = registry
        self._publish_entries()

    def _publish_entries(self) -> None:
        if self._metrics is not None:
            from repro.obs import names

            self._metrics.gauge(names.CACHE_ENTRIES).set(len(self._plans))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: str) -> bool:
        return key in self._plans

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._plans)

    def peek(self, key: str) -> "Plan | None":
        """Look up a plan without touching the hit/miss counters."""
        with self._lock:
            return self._plans.get(key)

    def get(self, key: str) -> "Plan | None":
        """Look up a plan, counting the hit or miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
        if self._metrics is not None:
            from repro.obs import names

            self._metrics.counter(
                names.CACHE_HITS if plan is not None else names.CACHE_MISSES
            ).inc()
        return plan

    def put(self, key: str, plan: "Plan") -> None:
        with self._lock:
            self._plans[key] = plan
        self._publish_entries()

    def promote(self, plans: "dict[str, Plan]") -> int:
        """Atomically install a batch of (re-tuned) plans into the live
        cache.

        All entries land under **one** lock acquisition, so a
        concurrent reader (an engine resolving requests mid-promote)
        sees either the old set or the new set of a promotion — never
        a half-applied mix. Returns how many entries actually changed
        (new keys, or keys whose plan differs from the cached one).
        """
        with self._lock:
            changed = 0
            for key, plan in plans.items():
                old = self._plans.get(key)
                if old is None or old.to_dict() != plan.to_dict():
                    changed += 1
                self._plans[key] = plan
        if self._metrics is not None and plans:
            from repro.obs import names

            self._metrics.counter(names.CACHE_PROMOTIONS).inc(len(plans))
        self._publish_entries()
        return changed

    def get_or_build(self, key: str, builder: Callable[[], "Plan"]) -> "Plan":
        """Return the cached plan or build, store and return a new one.

        The builder runs outside the lock (a planner search can take a
        while); concurrent misses of the same key may build twice, last
        write wins — plans for one key are interchangeable.
        """
        plan = self.get(key)
        if plan is None:
            plan = builder()
            self.put(key, plan)
        return plan

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
            }

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        with self._lock:
            payload = {
                "version": _FORMAT_VERSION,
                "plans": {k: p.to_dict() for k, p in sorted(self._plans.items())},
            }
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: str | Path | None = None) -> Path:
        """Persist every plan to JSON atomically; returns the path written.

        The payload lands in a temporary sibling first and is moved
        into place with ``os.replace``, so a concurrent reader (another
        serving process sharing the cache file) sees either the old or
        the new cache, never a partial write.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the cache has no default path")
        return atomic_write_text(target, self.to_json())

    def load(self, path: str | Path, strict: bool = True) -> int:
        """Merge plans from a JSON file; returns how many were loaded.

        Accepts the current schema only. A corrupt, truncated or
        wrong-schema file raises the typed
        :class:`~repro.errors.PlanCacheError` (also a ``ValueError``)
        when ``strict``; with ``strict=False`` it is reported via
        ``warnings.warn`` and the cache simply stays as it was — the
        behaviour of the constructor's auto-load, where a shared cache
        file torn by another writer must not take the server down.
        """
        try:
            return self._load(path)
        except PlanCacheError as exc:
            if strict:
                raise
            warnings.warn(
                f"ignoring unreadable plan cache: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0

    def _load(self, path: str | Path) -> int:
        from repro.serve.planner import Plan

        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PlanCacheError(f"cannot read plan cache {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise PlanCacheError(
                f"plan cache {path} holds {type(payload).__name__}, not an object"
            )
        version = payload.get("version")
        if not isinstance(version, int) or version != _FORMAT_VERSION:
            raise PlanCacheError(
                f"unsupported plan-cache version {version!r} "
                f"(supported: {_FORMAT_VERSION})"
            )
        raw = payload.get("plans")
        if not isinstance(raw, dict):
            raise PlanCacheError(f"plan cache {path} has no 'plans' object")
        try:
            plans = {k: Plan.from_dict(d) for k, d in raw.items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise PlanCacheError(
                f"plan cache {path} holds a malformed plan entry: {exc!r}"
            ) from exc
        with self._lock:
            self._plans.update(plans)
        self._publish_entries()
        return len(plans)
