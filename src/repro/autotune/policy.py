"""Re-tune policy: which live plan keys are worth re-sweeping.

The serving engine's metrics registry breaks traffic out per plan key
(:func:`repro.serve.telemetry.plan_traffic`); this module is the pure
decision layer between that per-plan traffic and a targeted sweep:

- :class:`RetunePolicy` holds the knobs — traffic-share and regression
  thresholds, trigger toggles, sweep budget, cadence;
- :func:`evaluate_traffic` turns one registry read into
  :class:`RetuneTrigger`\\ s (hot keys by traffic share, cold-search
  misses against a baseline key set, latency regressions vs. the
  plan's recorded cost estimate, fingerprint drift);
- :func:`synthesize` turns triggers back into
  :class:`~repro.autotune.space.SweepConfig`\\ s plus the exact plan-key
  set to measure, so :func:`~repro.autotune.runner.run_sweep` (with its
  ``keys=`` filter) re-sweeps *only* what the triggers named.

Everything here is deterministic and side-effect free — the
:mod:`~repro.autotune.scheduler` supplies the registry reads,
threading, promotion and artifact shipping around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.autotune.runner import SweepBudget
from repro.autotune.space import SweepConfig
from repro.errors import ConfigError
from repro.obs.health import HealthReport, SloSpec
from repro.serve.planner import Objective, PlanKey

__all__ = [
    "RetunePolicy",
    "RetuneTrigger",
    "TargetedSweep",
    "evaluate_traffic",
    "synthesize",
]


@dataclass(frozen=True)
class RetunePolicy:
    """When and how a live engine re-tunes itself.

    Pass one to :func:`repro.open_engine` to attach a background
    :class:`~repro.autotune.scheduler.RetuneScheduler` to the engine::

        import repro
        from repro.autotune import RetunePolicy

        policy = RetunePolicy(
            interval_s=30.0,       # scheduler wake-up cadence
            hot_share=0.10,        # keys carrying >=10% of traffic
            regression_ratio=1.5,  # observed vs predicted latency
            artifact_dir="retuned-plans",  # ship each promotion
        )
        client = repro.open_engine(device="A100", retune=policy)
        client.close()

    ``min_requests`` gates the whole evaluation — no re-tuning before
    the engine has seen that much traffic. ``cooldown_s`` keeps one
    key from being re-swept on every cycle. ``budget`` caps each
    cycle's sweep cost (the scheduler runs off the hot path, but CPU
    time is still CPU time); ``warmup``/``repeats`` are handed to
    :func:`~repro.autotune.runner.run_sweep`. ``artifact_dir`` (when
    set) ships every promotion as a ``retune-NNNN/plans.json`` artifact
    whose manifest records the per-plan traffic that triggered it.

    ``slos`` attaches SLO objectives (:class:`repro.obs.health.SloSpec`)
    the scheduler evaluates over the engine's metrics each cycle, on a
    rolling ``slo_window_s`` window; while a **latency** objective is
    in breach and ``retune_on_slo_breach`` is on, every served key is
    marked for re-sweep (the ``slo-breach`` trigger) — the engine is
    failing its contract, so the plans carrying the traffic are the
    first suspects.
    """

    interval_s: float = 30.0
    min_requests: int = 32
    hot_share: float = 0.10
    regression_ratio: float = 1.5
    retune_cold_misses: bool = True
    retune_on_drift: bool = True
    slos: tuple[SloSpec, ...] = ()
    retune_on_slo_breach: bool = True
    #: opt-in: also react to queue_depth / rejection_rate breaches (the
    #: ``load-shed`` trigger). Off by default — admission pressure on a
    #: single engine usually means overload, not a stale plan; a fleet
    #: deployment (:func:`repro.fleet.fleet_retune_policy`) turns it on
    #: so saturated workers re-sweep the plans carrying their traffic.
    retune_on_load_shed: bool = False
    slo_window_s: float = 300.0
    max_keys: int = 8
    cooldown_s: float = 300.0
    budget: SweepBudget = field(
        default_factory=lambda: SweepBudget(max_trials=64, max_seconds=60.0)
    )
    warmup: int = 0
    repeats: int = 1
    artifact_dir: "str | Path | None" = None

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError("interval_s must be > 0")
        if self.min_requests < 0:
            raise ConfigError("min_requests must be >= 0")
        if not 0.0 < self.hot_share <= 1.0:
            raise ConfigError("hot_share must be in (0, 1]")
        if self.regression_ratio <= 1.0:
            raise ConfigError("regression_ratio must be > 1")
        if self.max_keys < 1:
            raise ConfigError("max_keys must be >= 1")
        if self.cooldown_s < 0:
            raise ConfigError("cooldown_s must be >= 0")
        if self.warmup < 0 or self.repeats < 1:
            raise ConfigError("warmup must be >= 0 and repeats >= 1")
        if self.slo_window_s <= 0:
            raise ConfigError("slo_window_s must be > 0")
        # a tuple-of-SloSpec is the frozen form; accept a plain list
        if not isinstance(self.slos, tuple):
            object.__setattr__(self, "slos", tuple(self.slos))


@dataclass(frozen=True)
class RetuneTrigger:
    """One plan key one policy decided to re-sweep, and why.

    ``reason`` is the highest-priority trigger that fired
    (``regression`` > ``slo-breach`` > ``load-shed`` > ``cold-miss`` >
    ``hot`` > ``drift``); ``detail`` names every one that did. ``share`` is the
    key's share of the evaluated traffic (the sort key for
    :func:`evaluate_traffic`'s ``max_keys`` cap).
    """

    plan_key: str
    reason: str
    detail: str
    share: float = 0.0

    def to_dict(self) -> dict:
        return {
            "plan_key": self.plan_key,
            "reason": self.reason,
            "detail": self.detail,
            "share": self.share,
        }


@dataclass(frozen=True)
class TargetedSweep:
    """One synthesized sweep: a config plus the exact keys to measure.

    ``config`` spans the union of the triggers' axes (shapes, vector
    lengths, sparsities, backends, devices, objective bounds);
    ``keys`` filters :func:`~repro.autotune.runner.run_sweep` down to
    the triggered cells, so the union grid never measures untriggered
    cross-product cells.
    """

    config: SweepConfig
    keys: frozenset[str]


def evaluate_traffic(
    requests: int,
    plans: Mapping[str, dict],
    policy: RetunePolicy,
    *,
    baseline_keys: frozenset[str] = frozenset(),
    drift: Sequence[str] = (),
    exclude: "frozenset[str] | set[str]" = frozenset(),
    health: "HealthReport | None" = None,
) -> list[RetuneTrigger]:
    """Decide which served plan keys are worth re-sweeping.

    ``requests`` is the registry's total served requests (the share
    denominator) and ``plans`` its per-plan traffic
    (:func:`repro.serve.telemetry.plan_traffic`).
    ``baseline_keys`` is the plan-key set that existed before live
    traffic (warm-start artifacts plus earlier promotions) — traffic on
    any other key paid a cold planner search, the ``cold-miss``
    trigger. ``drift`` is the output of
    :func:`~repro.autotune.artifact.check_drift` for the engine's
    warm-start manifests; any non-empty drift marks every served key.
    ``health`` is a current :class:`~repro.obs.health.HealthReport`
    (the scheduler evaluates ``policy.slos`` each cycle); a **latency**
    objective in breach marks every served key — the ``slo-breach``
    trigger — and, when ``policy.retune_on_load_shed`` is on, a
    **queue_depth** / **rejection_rate** objective in breach marks
    them with the lower-priority ``load-shed`` trigger: the fleet
    gateway feeding its admission signals into the policy's SLOs is
    shedding work, so cheaper plans for the keys carrying the traffic
    are the remedy re-tuning can offer.
    ``exclude`` removes keys under the scheduler's cooldown.
    Triggers come back sorted by traffic share (then key), capped at
    ``policy.max_keys``.
    """
    if requests < policy.min_requests or requests == 0:
        return []
    breached = []
    pressured = []
    if policy.retune_on_slo_breach and health is not None:
        breached = [r for r in health.breaches if r.spec.kind == "latency"]
    if policy.retune_on_load_shed and health is not None:
        pressured = [
            r for r in health.breaches
            if r.spec.kind in ("queue_depth", "rejection_rate")
        ]
    triggers: list[RetuneTrigger] = []
    for key in sorted(plans):
        if key in exclude:
            continue
        stats = plans[key]
        share = stats.get("requests", 0) / requests
        reasons: list[tuple[str, str]] = []
        launches = stats.get("launches", stats.get("batches", 0))
        predicted = stats.get("predicted_time_s", 0.0)
        if launches and predicted > 0:
            observed = stats.get("modelled_busy_s", 0.0) / launches
            ratio = observed / predicted
            if ratio > policy.regression_ratio:
                reasons.append((
                    "regression",
                    f"observed {observed * 1e6:.2f}us vs predicted "
                    f"{predicted * 1e6:.2f}us ({ratio:.2f}x > "
                    f"{policy.regression_ratio}x)",
                ))
        if breached:
            worst = max(breached, key=lambda r: r.burn)
            reasons.append((
                "slo-breach",
                f"latency objective {worst.spec.name!r} burning at "
                f"{worst.burn:.2f}x budget ({worst.detail})",
            ))
        if pressured:
            worst = max(pressured, key=lambda r: r.burn)
            reasons.append((
                "load-shed",
                f"pressure objective {worst.spec.name!r} "
                f"({worst.spec.kind}) burning at {worst.burn:.2f}x "
                f"budget ({worst.detail})",
            ))
        if policy.retune_cold_misses and key not in baseline_keys:
            reasons.append((
                "cold-miss",
                "first contact paid the cold planner search (key absent "
                "from the warm baseline)",
            ))
        if share >= policy.hot_share:
            reasons.append((
                "hot",
                f"traffic share {share:.1%} >= {policy.hot_share:.1%}",
            ))
        if policy.retune_on_drift and drift:
            reasons.append((
                "drift",
                f"{len(drift)} fingerprint mismatch(es), e.g. {drift[0]}",
            ))
        if not reasons:
            continue
        triggers.append(RetuneTrigger(
            plan_key=key,
            reason=reasons[0][0],
            detail="; ".join(f"{r}: {d}" for r, d in reasons),
            share=share,
        ))
    triggers.sort(key=lambda t: (-t.share, t.plan_key))
    return triggers[: policy.max_keys]


def synthesize(
    triggers: Sequence[RetuneTrigger],
) -> tuple[list[TargetedSweep], list[tuple[RetuneTrigger, str]]]:
    """Turn triggers into targeted sweeps (plus the unsweepable rest).

    Each trigger's plan key is parsed back into its problem axes
    (:meth:`~repro.serve.planner.PlanKey.parse`) and objective
    (:meth:`~repro.serve.planner.Objective.parse`); triggers sharing an
    objective kind and latency budget merge into one
    :class:`TargetedSweep` whose config spans the union of their axes
    and whose ``keys`` restrict the walk to exactly the triggered
    cells. Keys a sweep cannot reproduce — multi-backend /
    multi-device searched sets (``+``-joined runtime segments) or
    unparseable keys — come back in the second list with the reason,
    never silently dropped.
    """
    groups: dict[tuple, dict] = {}
    skipped: list[tuple[RetuneTrigger, str]] = []
    for trigger in triggers:
        try:
            pk = PlanKey.parse(trigger.plan_key)
        except ValueError as exc:
            skipped.append((trigger, f"unparseable plan key: {exc}"))
            continue
        if "+" in pk.backend or "+" in pk.device:
            skipped.append((
                trigger,
                "multi-backend/device searched key; a sweep pins one "
                "(backend, device) per point and would change the key",
            ))
            continue
        try:
            obj = Objective.parse(pk.objective)
        except ValueError as exc:
            skipped.append((trigger, f"unparseable objective token: {exc}"))
            continue
        group = groups.setdefault((obj.kind, obj.latency_budget_s), {
            "ops": {}, "shapes": {}, "vector_lengths": {}, "sparsities": {},
            "backends": {}, "devices": {}, "bits": {}, "keys": set(),
        })
        # dicts as ordered sets: union the axes, preserve trigger order
        group["ops"][pk.op] = None
        group["shapes"][(pk.rows, pk.cols, pk.inner)] = None
        group["vector_lengths"][pk.vector_length] = None
        group["sparsities"][pk.sparsity] = None
        group["backends"][pk.backend] = None
        group["devices"][pk.device] = None
        group["bits"][(
            obj.min_l_bits, obj.min_r_bits, obj.max_l_bits, obj.max_r_bits
        )] = None
        group["keys"].add(trigger.plan_key)
    targets = []
    for (kind, budget_s), group in groups.items():
        bits = list(group["bits"])
        targets.append(TargetedSweep(
            config=SweepConfig(
                ops=tuple(group["ops"]),
                shapes=tuple(group["shapes"]),
                vector_lengths=tuple(group["vector_lengths"]),
                sparsities=tuple(group["sparsities"]),
                backends=tuple(group["backends"]),
                devices=tuple(group["devices"]),
                min_bits=tuple((l, r) for l, r, _, _ in bits),
                max_bits=tuple((ml, mr) for _, _, ml, mr in bits),
                objective=kind,
                latency_budget_s=budget_s,
            ),
            keys=frozenset(group["keys"]),
        ))
    return targets, skipped
