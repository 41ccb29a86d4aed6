"""Retune policy: trigger evaluation and targeted-space synthesis."""

import pytest

from repro.autotune.policy import (
    RetunePolicy,
    RetuneTrigger,
    evaluate_traffic,
    synthesize,
)
from repro.autotune.space import enumerate_space
from repro.errors import ConfigError
from repro.serve.planner import Objective, PlanKey


def key_for(n=64, backend="magicube-emulation", device="A100",
            objective=None, op="spmm") -> str:
    obj = objective if objective is not None else Objective.latency(8, 8)
    return str(PlanKey(
        op=op, rows=512, cols=512, inner=n, vector_length=8, sparsity=0.9,
        backend=backend, device=device, objective=obj.token,
    ))


def traffic_for(plans: dict, requests: int | None = None) -> tuple[int, dict]:
    """``(total requests, per-plan traffic)`` as the scheduler reads them."""
    total = requests if requests is not None else sum(
        p.get("requests", 0) for p in plans.values()
    )
    return total, plans


def plan_stats(requests=10, launches=None, busy=None, predicted=1e-6,
               batches=None) -> dict:
    batches = batches if batches is not None else requests
    launches = launches if launches is not None else batches
    busy = busy if busy is not None else predicted * launches
    return {
        "requests": requests, "batches": batches, "launches": launches,
        "modelled_busy_s": busy, "predicted_time_s": predicted,
        "backend": "magicube-emulation", "device": "A100",
    }


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        RetunePolicy()

    @pytest.mark.parametrize("kwargs", [
        {"interval_s": 0}, {"hot_share": 0.0}, {"hot_share": 1.5},
        {"regression_ratio": 1.0}, {"max_keys": 0}, {"cooldown_s": -1},
        {"min_requests": -1}, {"repeats": 0}, {"warmup": -1},
    ])
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            RetunePolicy(**kwargs)


class TestEvaluate:
    def test_below_min_requests_is_quiet(self):
        traffic = traffic_for({key_for(): plan_stats(requests=3)})
        policy = RetunePolicy(min_requests=10)
        assert evaluate_traffic(*traffic, policy) == []

    def test_hot_key_triggers_by_traffic_share(self):
        hot, cold = key_for(64), key_for(128)
        traffic = traffic_for({
            hot: plan_stats(requests=90),
            cold: plan_stats(requests=10),
        })
        policy = RetunePolicy(min_requests=1, hot_share=0.5,
                              retune_cold_misses=False)
        triggers = evaluate_traffic(*traffic, policy)
        assert [t.plan_key for t in triggers] == [hot]
        assert triggers[0].reason == "hot"
        assert triggers[0].share == pytest.approx(0.9)

    def test_cold_miss_vs_baseline(self):
        warm, missed = key_for(64), key_for(128)
        traffic = traffic_for({
            warm: plan_stats(requests=10),
            missed: plan_stats(requests=10),
        })
        policy = RetunePolicy(min_requests=1, hot_share=1.0)
        triggers = evaluate_traffic(
            *traffic, policy, baseline_keys=frozenset({warm})
        )
        assert [t.plan_key for t in triggers] == [missed]
        assert triggers[0].reason == "cold-miss"

    def test_regression_vs_recorded_estimate(self):
        regressed, fine = key_for(64), key_for(128)
        traffic = traffic_for({
            regressed: plan_stats(requests=10, predicted=1e-6, busy=3e-5),
            fine: plan_stats(requests=10, predicted=1e-6),
        })
        policy = RetunePolicy(min_requests=1, hot_share=1.0,
                              regression_ratio=2.0, retune_cold_misses=False)
        triggers = evaluate_traffic(*traffic, policy)
        assert [t.plan_key for t in triggers] == [regressed]
        assert triggers[0].reason == "regression"
        assert "3.00x" in triggers[0].detail

    def test_regression_uses_launches_not_batches(self):
        """An SDDMM dispatch sums item launches; observed per-launch time
        must not be mistaken for a regression."""
        key = key_for(64, op="sddmm")
        traffic = traffic_for({
            key: plan_stats(requests=8, batches=2, launches=8,
                            predicted=1e-6, busy=8e-6),
            key_for(128): plan_stats(requests=8, predicted=1e-6),
        })
        policy = RetunePolicy(min_requests=1, hot_share=1.0,
                              regression_ratio=1.5, retune_cold_misses=False)
        assert evaluate_traffic(*traffic, policy) == []

    def test_drift_marks_served_keys(self):
        keys = [key_for(64), key_for(128)]
        traffic = traffic_for({k: plan_stats(requests=10) for k in keys})
        policy = RetunePolicy(min_requests=1, hot_share=1.0,
                              retune_cold_misses=False)
        triggers = evaluate_traffic(
            *traffic, policy, baseline_keys=frozenset(keys),
            drift=["backend 'x' changed since the sweep"],
        )
        assert sorted(t.plan_key for t in triggers) == sorted(keys)
        assert {t.reason for t in triggers} == {"drift"}
        no_drift = evaluate_traffic(
            *traffic, policy, baseline_keys=frozenset(keys)
        )
        assert no_drift == []

    def test_exclude_implements_cooldown(self):
        key = key_for()
        traffic = traffic_for({key: plan_stats(requests=10)})
        policy = RetunePolicy(min_requests=1, hot_share=0.1)
        assert evaluate_traffic(*traffic, policy, exclude={key}) == []

    def test_max_keys_caps_by_traffic_share(self):
        keys = {key_for(n): plan_stats(requests=10 * (i + 1))
                for i, n in enumerate((32, 64, 128, 256))}
        traffic = traffic_for(keys)
        policy = RetunePolicy(min_requests=1, hot_share=0.01, max_keys=2)
        triggers = evaluate_traffic(*traffic, policy)
        assert len(triggers) == 2
        shares = [t.share for t in triggers]
        assert shares == sorted(shares, reverse=True)

    def test_deterministic_ordering(self):
        keys = {key_for(n): plan_stats(requests=10) for n in (64, 128, 256)}
        traffic = traffic_for(keys)
        policy = RetunePolicy(min_requests=1, hot_share=0.01)
        a = evaluate_traffic(*traffic, policy)
        b = evaluate_traffic(*traffic, policy)
        assert a == b


def health_report(kind="latency", breaching=True):
    """A real HealthReport graded from a synthetic registry."""
    from repro.obs import names
    from repro.obs.health import SloSpec, evaluate_registry
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.names import declare_standard

    registry = declare_standard(MetricsRegistry())
    if kind == "latency":
        wall = registry.histogram(names.REQUEST_WALL)
        for _ in range(20):
            wall.observe(2.0 if breaching else 0.001)
        spec = SloSpec(name="wall-p95", kind="latency", objective=0.25)
    else:
        registry.counter(names.REQUESTS, {"session": "s"}).inc(100)
        registry.counter(names.REJECTIONS, {"session": "s"}).inc(
            50 if breaching else 0
        )
        spec = SloSpec(name="shed", kind="rejection_rate", objective=0.05)
    return evaluate_registry(registry, (spec,))


class TestSloBreachTrigger:
    def _quiet_policy(self, **kwargs):
        # no other trigger can fire: warm baseline, no hot share reached
        return RetunePolicy(
            min_requests=1, hot_share=1.0, retune_cold_misses=False, **kwargs
        )

    def test_latency_breach_marks_served_keys(self):
        keys = [key_for(64), key_for(128)]
        traffic = traffic_for({k: plan_stats(requests=10) for k in keys})
        triggers = evaluate_traffic(
            *traffic, self._quiet_policy(), health=health_report("latency")
        )
        assert sorted(t.plan_key for t in triggers) == sorted(keys)
        assert {t.reason for t in triggers} == {"slo-breach"}
        assert all("wall-p95" in t.detail for t in triggers)

    def test_healthy_report_triggers_nothing(self):
        # requests=100 keeps the key's share below hot_share
        traffic = traffic_for({key_for(): plan_stats(requests=10)}, requests=100)
        report = health_report("latency", breaching=False)
        assert report.status == "healthy"
        assert evaluate_traffic(
            *traffic, self._quiet_policy(), health=report
        ) == []

    def test_non_latency_breach_does_not_retune(self):
        # a rejection-rate breach means admission pressure, not a stale
        # plan: re-sweeping would not help, so the trigger ignores it
        traffic = traffic_for({key_for(): plan_stats(requests=10)}, requests=100)
        report = health_report("rejection_rate")
        assert report.status == "breach"
        assert evaluate_traffic(
            *traffic, self._quiet_policy(), health=report
        ) == []

    def test_toggle_off_suppresses_the_trigger(self):
        traffic = traffic_for({key_for(): plan_stats(requests=10)}, requests=100)
        policy = self._quiet_policy(retune_on_slo_breach=False)
        assert evaluate_traffic(
            *traffic, policy, health=health_report("latency")
        ) == []

    def test_regression_outranks_slo_breach(self):
        key = key_for()
        traffic = traffic_for({
            key: plan_stats(requests=10, predicted=1e-6, busy=3e-5),
        })
        policy = self._quiet_policy(regression_ratio=2.0)
        (trigger,) = evaluate_traffic(
            *traffic, policy, health=health_report("latency")
        )
        assert trigger.reason == "regression"
        assert "slo-breach" in trigger.detail  # still named in the detail

    def test_slo_breach_outranks_cold_miss(self):
        key = key_for()
        traffic = traffic_for({key: plan_stats(requests=10)})
        policy = RetunePolicy(min_requests=1, hot_share=1.0)
        (trigger,) = evaluate_traffic(
            *traffic, policy, health=health_report("latency")
        )
        assert trigger.reason == "slo-breach"
        assert "cold-miss" in trigger.detail

    def test_slo_knob_validation(self):
        with pytest.raises(ConfigError):
            RetunePolicy(slo_window_s=0.0)
        from repro.obs.health import SloSpec

        spec = SloSpec(name="lat", kind="latency", objective=0.25)
        policy = RetunePolicy(slos=[spec])  # lists coerce to tuple
        assert policy.slos == (spec,)


class TestSynthesize:
    def trigger(self, key: str) -> RetuneTrigger:
        return RetuneTrigger(plan_key=key, reason="hot", detail="", share=0.5)

    def test_targeted_config_reproduces_exact_keys(self):
        """The synthesized grid, filtered to the target keys, enumerates
        points whose plan_key round-trips exactly — the contract that
        makes a promoted plan *hit* at serving time."""
        keys = [key_for(64), key_for(128)]
        targets, skipped = synthesize([self.trigger(k) for k in keys])
        assert skipped == []
        assert len(targets) == 1
        target = targets[0]
        assert target.keys == frozenset(keys)
        enumerated = {
            p.plan_key for p in enumerate_space(target.config)
        }
        assert frozenset(keys) <= enumerated

    def test_fixed_precision_objective_round_trips(self):
        """Objective.fixed pins max bits too — max_bits carries it."""
        key = key_for(64, objective=Objective.fixed(8, 8))
        targets, skipped = synthesize([self.trigger(key)])
        assert skipped == []
        config = targets[0].config
        assert config.min_bits == ((8, 8),)
        assert config.max_bits == ((8, 8),)
        assert key in {p.plan_key for p in enumerate_space(config)}

    def test_objective_kinds_group_separately(self):
        latency = key_for(64)
        accuracy = key_for(
            128, objective=Objective.accuracy(min_l_bits=8, min_r_bits=8)
        )
        targets, skipped = synthesize(
            [self.trigger(latency), self.trigger(accuracy)]
        )
        assert skipped == []
        assert len(targets) == 2
        assert {t.config.objective for t in targets} == {"latency", "accuracy"}

    def test_multi_backend_keys_are_skipped_with_reason(self):
        key = key_for(backend="magicube-emulation+cublas-fp16")
        targets, skipped = synthesize([self.trigger(key)])
        assert targets == []
        assert len(skipped) == 1
        assert "multi-backend" in skipped[0][1]

    def test_unparseable_keys_are_skipped_with_reason(self):
        targets, skipped = synthesize([self.trigger("not|a|plan|key")])
        assert targets == []
        assert "unparseable" in skipped[0][1]
