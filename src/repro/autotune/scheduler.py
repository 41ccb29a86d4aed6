"""The telemetry-driven re-tuning scheduler — serve → autotune, closed.

A :class:`RetuneScheduler` reads one
:class:`~repro.obs.metrics.MetricsRegistry` and runs the loop one cycle
at a time — off the hot path, from a background thread woken every
``policy.interval_s``, or driven directly through :meth:`run_once`:

1. **observe** — project the registry per plan key
   (:func:`~repro.serve.telemetry.plan_traffic`) and drift-check the
   warm-start manifests against the live backend registry;
2. **decide** — :func:`~repro.autotune.policy.evaluate_traffic` names
   the plan keys worth re-sweeping (hot, cold-missed, regressed,
   drifted, or carrying traffic while a latency SLO burns — see
   ``RetunePolicy.slos``), under the per-key cooldown and the
   policy's ``max_keys`` cap;
3. **re-sweep** — :func:`~repro.autotune.policy.synthesize` builds
   targeted :class:`~repro.autotune.space.SweepConfig`\\ s and
   :func:`~repro.autotune.runner.run_sweep` measures exactly the
   triggered keys, budget-capped by the policy's
   :class:`~repro.autotune.runner.SweepBudget`;
4. **promote** — the fresh plans land in the scheduler's
   :class:`~repro.serve.cache.PlanCache` through the lock-atomic
   :meth:`~repro.serve.cache.PlanCache.promote` (for an engine, its
   live cache: concurrent ``run()`` calls see the old or the new plan
   set, never a torn mix), and — when ``policy.artifact_dir`` is set —
   ship as a ``retune-NNNN`` artifact whose manifest names the
   per-plan traffic that triggered it.

Attach one to an engine with ``repro.open_engine(retune=RetunePolicy(...))``
and poll it with ``client.retune_status()``. ``repro autotune watch``
runs the same :meth:`~RetuneScheduler.run_once` over a metrics file
another process exported, re-loaded at every poll.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.autotune.artifact import (
    ArtifactManifest,
    _digest,
    check_drift,
    device_fingerprints,
    git_describe,
    manifest_path,
    registry_fingerprints,
    write_artifact,
)
from repro.autotune.policy import (
    RetunePolicy,
    RetuneTrigger,
    evaluate_traffic,
    synthesize,
)
from repro.autotune.runner import run_sweep
from repro.errors import PlanCacheError, RetuneError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, select
from repro.serve.cache import PlanCache
from repro.serve.telemetry import plan_traffic

__all__ = ["RetuneCycle", "RetuneScheduler", "RetuneStatus"]


@dataclass
class RetuneCycle:
    """What one scheduler wake-up observed, measured and promoted.

    ``snapshot_fingerprint`` is a content hash of the per-plan traffic
    the cycle read (identical traffic ⇒ identical fingerprint); the
    shipped manifest records it as ``retune.snapshot``.
    """

    snapshot_fingerprint: str
    triggers: list[RetuneTrigger] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    drift: list[str] = field(default_factory=list)
    measured: int = 0
    promoted: int = 0  # plans installed into the live cache
    changed: int = 0  # of those, how many differed from the cached plan
    promoted_keys: list[str] = field(default_factory=list)
    artifact: Path | None = None
    error: str | None = None  # a cycle that raised still gets recorded
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "snapshot": self.snapshot_fingerprint,
            "triggers": [t.to_dict() for t in self.triggers],
            "skipped": [list(pair) for pair in self.skipped],
            "drift": list(self.drift),
            "measured": self.measured,
            "promoted": self.promoted,
            "changed": self.changed,
            "promoted_keys": list(self.promoted_keys),
            "artifact": str(self.artifact) if self.artifact is not None else None,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }


@dataclass(frozen=True)
class RetuneStatus:
    """A point-in-time view of one scheduler (``client.retune_status()``)."""

    running: bool
    cycles: int
    triggers_total: int
    promoted_total: int
    baseline_keys: int
    artifacts: tuple[str, ...] = ()
    last_cycle: dict | None = None
    last_error: str | None = None

    def to_dict(self) -> dict:
        return {
            "running": self.running,
            "cycles": self.cycles,
            "triggers_total": self.triggers_total,
            "promoted_total": self.promoted_total,
            "baseline_keys": self.baseline_keys,
            "artifacts": list(self.artifacts),
            "last_cycle": self.last_cycle,
            "last_error": self.last_error,
        }


@dataclass
class _SweepOutcome:
    """What measuring a batch of targeted sweeps produced."""

    cache: PlanCache
    configs: list = field(default_factory=list)
    measurements: list = field(default_factory=list)
    backends: set = field(default_factory=set)
    devices: set = field(default_factory=set)
    measured: int = 0


def _measure_targets(targets, policy: RetunePolicy) -> _SweepOutcome:
    """Run every targeted sweep under the policy's budget/timing knobs."""
    outcome = _SweepOutcome(cache=PlanCache())
    for target in targets:
        report = run_sweep(
            target.config,
            budget=policy.budget,
            warmup=policy.warmup,
            repeats=policy.repeats,
            prune_ratio=None,  # targeted points are already chosen
            cache=outcome.cache,
            keys=target.keys,
        )
        outcome.configs.append(target.config.to_dict())
        outcome.measurements += [m.to_dict() for m in report.measurements]
        outcome.backends |= {m.point.backend for m in report.measurements}
        outcome.devices |= {m.point.device for m in report.measurements}
        outcome.measured += len(report.measurements)
    return outcome


class RetuneScheduler:
    """Re-tunes the plans one metrics registry's traffic names.

    ``metrics`` is the registry every cycle reads: an engine's live
    registry, or one loaded from a metrics file (``repro autotune
    watch`` re-assigns :attr:`metrics` at each poll). Promotions land
    in ``cache`` — an engine's live plan cache, or by default a private
    one recording what this scheduler promoted. ``baseline_keys`` are
    the keys that did not pay a live cold search (warm-started
    contents); every promoted key joins them. ``warm_start_paths`` are
    the artifacts whose manifests each cycle drift-checks against the
    backend ``registry`` (default: the live one).

    Construction is passive; :meth:`start` spawns the daemon thread
    (``Engine(retune=...)`` does both). :meth:`run_once` is the whole
    loop body and is safe to call directly — tests, ``bench retune``
    and ``repro autotune watch`` drive deterministic cycles that way,
    without waking the thread.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        policy: RetunePolicy | None = None,
        *,
        cache: PlanCache | None = None,
        baseline_keys: Iterable[str] = (),
        warm_start_paths: Sequence["str | Path"] = (),
        registry=None,
    ) -> None:
        self.metrics = metrics
        self.policy = policy if policy is not None else RetunePolicy()
        self._cache = cache if cache is not None else PlanCache()
        self._warm_start_paths = tuple(Path(p) for p in warm_start_paths)
        self._registry = registry
        #: rolling-window SLO evaluator (only when the policy declares
        #: objectives)
        self._health_evaluator = None
        if self.policy.slos:
            from repro.obs.health import HealthEvaluator

            self._health_evaluator = HealthEvaluator(
                self.policy.slos, window_s=self.policy.slo_window_s
            )
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        #: serializes cycles (timer thread vs. a direct run_once call)
        self._cycle_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._baseline_keys = frozenset(baseline_keys)
        self._tuned_at: dict[str, float] = {}
        #: consecutive re-tunes of a key that left its plan unchanged —
        #: each doubles that key's effective cooldown (capped), so a
        #: permanently-regressed key whose re-sweep cannot change
        #: anything backs off instead of burning the budget forever
        self._unchanged_streak: dict[str, int] = {}
        #: per-key traffic at the last promotion that changed the key's
        #: plan (:func:`plan_traffic`'s ``since``)
        self._plan_base: dict[str, dict] = {}
        self._cycles = 0
        self._triggers_total = 0
        self._promoted_total = 0
        self._artifacts: list[Path] = []
        self._last_cycle: RetuneCycle | None = None
        self._last_error: str | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background cycle thread (idempotent)."""
        if self.running:
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-retune", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the background thread; safe to call repeatedly."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop_event.wait(self.policy.interval_s):
            try:
                self.run_once()
            except Exception as exc:  # the loop must survive a bad cycle
                with self._state_lock:
                    self._last_error = f"{type(exc).__name__}: {exc}"

    # -- reporting -------------------------------------------------------
    def status(self) -> RetuneStatus:
        """A consistent point-in-time view of the scheduler's state."""
        with self._state_lock:
            return RetuneStatus(
                running=self.running,
                cycles=self._cycles,
                triggers_total=self._triggers_total,
                promoted_total=self._promoted_total,
                baseline_keys=len(self._baseline_keys),
                artifacts=tuple(str(p) for p in self._artifacts),
                last_cycle=(
                    self._last_cycle.to_dict()
                    if self._last_cycle is not None else None
                ),
                last_error=self._last_error,
            )

    # -- the loop body ---------------------------------------------------
    def run_once(self) -> RetuneCycle:
        """Run one observe → decide → re-sweep → promote cycle.

        Returns the :class:`RetuneCycle` record (also visible via
        :meth:`status` as ``last_cycle``). Cycles are serialized: a
        direct call while the timer thread is mid-cycle blocks until
        that cycle finishes.
        """
        with self._cycle_lock:
            started = time.perf_counter()
            metrics = self.metrics
            doc = metrics.to_dict()
            requests = int(sum(s["value"] for s in select(doc, names.REQUESTS)))
            plans = plan_traffic(doc, since=self._plan_base)
            drift = self._drift_lines()
            now = time.monotonic()
            exclude = set()
            for key, tuned in self._tuned_at.items():
                backoff = 1 << min(self._unchanged_streak.get(key, 0), 6)
                if now - tuned < self.policy.cooldown_s * backoff:
                    exclude.add(key)
            health = None
            if self._health_evaluator is not None:
                # publishes repro_slo_* into the registry too
                health = self._health_evaluator.evaluate(metrics, now=now)
            triggers = evaluate_traffic(
                requests,
                plans,
                self.policy,
                baseline_keys=self._baseline_keys,
                drift=drift,
                exclude=exclude,
                health=health,
            )
            cycle = RetuneCycle(
                snapshot_fingerprint=_digest({"requests": requests, "plans": plans}),
                triggers=list(triggers),
                drift=list(drift),
            )
            try:
                if triggers:
                    self._retune(cycle, metrics, triggers)
            except Exception as exc:
                # a failing sweep must not hot-retry every interval:
                # its triggers cool down exactly like handled ones, and
                # the cycle is still recorded (re-raised for the caller
                # / the loop's last_error)
                cycle.error = f"{type(exc).__name__}: {exc}"
                failed = time.monotonic()
                for trigger in triggers:
                    self._tuned_at[trigger.plan_key] = failed
                raise
            finally:
                cycle.elapsed_s = time.perf_counter() - started
                with self._state_lock:
                    self._cycles += 1
                    self._triggers_total += len(cycle.triggers)
                    self._promoted_total += cycle.promoted
                    if cycle.artifact is not None:
                        self._artifacts.append(cycle.artifact)
                    self._last_cycle = cycle
                self._publish_cycle(metrics, cycle, cooldown_keys=len(exclude))
            return cycle

    @staticmethod
    def _publish_cycle(
        m: MetricsRegistry, cycle: RetuneCycle, cooldown_keys: int
    ) -> None:
        """Mirror one cycle's outcome into the obs metrics registry."""
        m.counter(names.RETUNE_CYCLES).inc()
        if cycle.triggers:
            m.counter(names.RETUNE_TRIGGERS).inc(len(cycle.triggers))
        if cycle.promoted:
            m.counter(names.RETUNE_PROMOTIONS).inc(cycle.promoted)
        m.gauge(names.RETUNE_COOLDOWN).set(cooldown_keys)

    def _retune(
        self,
        cycle: RetuneCycle,
        metrics: MetricsRegistry,
        triggers: Sequence[RetuneTrigger],
    ) -> None:
        """Measure the triggered keys and promote the fresh plans."""
        targets, skipped = synthesize(triggers)
        cycle.skipped = [(t.plan_key, why) for t, why in skipped]
        tuned = time.monotonic()
        # unsweepable keys get the cooldown too — they must not occupy
        # trigger slots (max_keys) on every single cycle
        for trigger, _why in skipped:
            self._tuned_at[trigger.plan_key] = tuned
        if not targets:
            return
        outcome = _measure_targets(targets, self.policy)
        cycle.measured = outcome.measured
        plans = {key: outcome.cache.peek(key) for key in outcome.cache.keys()}
        if not plans:
            raise RetuneError(
                f"targeted sweep measured no plans for "
                f"{sorted(k for t in targets for k in t.keys)}"
            )
        before = {key: self._cache.peek(key) for key in plans}
        cycle.changed = self._cache.promote(plans)
        cycle.promoted = len(plans)
        cycle.promoted_keys = sorted(plans)
        changed_keys = []
        for key, plan in plans.items():
            self._tuned_at[key] = tuned
            prev = before[key]
            if prev is not None and prev.to_dict() == plan.to_dict():
                # a sterile re-tune: same plan came back — back off
                self._unchanged_streak[key] = (
                    self._unchanged_streak.get(key, 0) + 1
                )
            else:
                self._unchanged_streak.pop(key, None)
                changed_keys.append(key)
        # observations recorded under a *replaced* plan describe the old
        # decision; regression checks restart from post-promotion traffic
        lifetime = plan_traffic(metrics.to_dict())
        self._plan_base.update(
            {key: lifetime[key] for key in changed_keys if key in lifetime}
        )
        with self._state_lock:
            # promoted keys join the baseline: their future traffic is
            # warm, not a cold miss
            self._baseline_keys = self._baseline_keys | frozenset(plans)
        if self.policy.artifact_dir is not None:
            cycle.artifact = self._ship(outcome, cycle)

    def _ship(self, outcome: _SweepOutcome, cycle: RetuneCycle) -> Path:
        """Write the promotion as a provenance-carrying artifact pair."""
        with self._state_lock:
            seq = len(self._artifacts) + 1
        out = Path(self.policy.artifact_dir) / f"retune-{seq:04d}" / "plans.json"
        manifest = ArtifactManifest(
            sweep={
                "source": "retune",
                "configs": outcome.configs,
                "measured": outcome.measured,
                "retune": {
                    "cycle": seq,
                    "snapshot": cycle.snapshot_fingerprint,
                    "triggers": [t.to_dict() for t in cycle.triggers],
                    "drift": list(cycle.drift),
                },
            },
            git=git_describe(),
            backends=registry_fingerprints(
                self._registry, sorted(outcome.backends)
            ),
            devices=device_fingerprints(sorted(outcome.devices)),
            plans=len(outcome.cache),
            measurements=outcome.measurements,
        )
        plans_path, _ = write_artifact(out, outcome.cache, manifest)
        return plans_path

    def _drift_lines(self) -> list[str]:
        """Drift of the warm-start manifests vs. the backend registry."""
        lines: list[str] = []
        for path in self._warm_start_paths:
            mpath = manifest_path(path)
            if not mpath.exists():
                continue
            try:
                manifest = ArtifactManifest.load(mpath)
            except PlanCacheError:
                continue  # unreadable manifest already warned at load
            lines += check_drift(manifest, self._registry)
        return lines
