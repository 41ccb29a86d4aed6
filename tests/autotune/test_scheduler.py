"""Retune scheduler: cycles, promotion, provenance, engine wiring."""

import json
import threading

import numpy as np
import pytest

from repro import api
from repro.autotune import (
    ArtifactManifest,
    RetunePolicy,
    SweepBudget,
    manifest_path,
)
from repro.autotune.artifact import _digest
from repro.errors import RetuneError
from repro.obs import names
from repro.obs.metrics import select
from repro.serve.telemetry import plan_traffic, publish_batch
from tests.conftest import make_structured_sparse


@pytest.fixture
def weights(rng):
    return make_structured_sparse(rng, 512, 512, 8, 0.9, bits=8)


def quiet_policy(**overrides) -> RetunePolicy:
    """A policy whose timer never fires: cycles are driven by run_once."""
    defaults = dict(
        interval_s=3600.0,
        min_requests=1,
        hot_share=0.05,
        cooldown_s=0.0,
        budget=SweepBudget(max_trials=16, max_seconds=60.0),
        repeats=1,
    )
    defaults.update(overrides)
    return RetunePolicy(**defaults)


def serve_widths(client, weights, widths, per=2):
    session = client.prepare(api.SpmmRequest(lhs=weights, session="ffn"))
    rng = np.random.default_rng(1)
    for n in widths:
        for _ in range(per):
            client.run(api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-128, 128, size=(512, n)),
                session="ffn",
            ))
    return session


class TestEngineWiring:
    def test_open_engine_starts_and_close_stops(self):
        client = api.open_engine(device="A100", retune=quiet_policy())
        try:
            assert client.retune is not None
            assert client.retune.running
            status = client.retune_status()
            assert status.running and status.cycles == 0
        finally:
            client.close()
        assert not client.retune.running

    def test_without_retune_status_raises_typed_error(self):
        with api.open_engine(device="A100") as client:
            assert client.retune is None
            with pytest.raises(RetuneError):
                client.retune_status()

    def test_idle_engine_produces_no_triggers(self):
        with api.open_engine(device="A100", retune=quiet_policy()) as client:
            cycle = client.retune.run_once()
            assert cycle.triggers == []
            assert cycle.promoted == 0

    def test_slo_cycle_publishes_health_metrics(self, weights):
        from repro.obs import names
        from repro.obs.health import DEFAULT_SLOS
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        policy = quiet_policy(slos=DEFAULT_SLOS)
        with api.open_engine(
            device="A100", metrics=registry, retune=policy
        ) as client:
            serve_widths(client, weights, [16], per=2)
            client.retune.run_once()
        evaluations = sum(
            c.value for _, c in registry.samples(names.SLO_EVALUATIONS)
        )
        assert evaluations == len(DEFAULT_SLOS)

    def test_policy_without_slos_skips_health(self):
        from repro.obs import names
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with api.open_engine(
            device="A100", metrics=registry, retune=quiet_policy()
        ) as client:
            client.retune.run_once()
        assert registry.samples(names.SLO_EVALUATIONS) == []


class TestCycles:
    def test_cold_misses_trigger_and_promote(self, weights):
        with api.open_engine(device="A100", retune=quiet_policy()) as client:
            serve_widths(client, weights, (64, 128))
            cycle = client.retune.run_once()
            assert {t.reason for t in cycle.triggers} == {"cold-miss"}
            assert cycle.measured == 2
            assert cycle.promoted == 2
            # every triggered key is now live in the engine's cache
            for t in cycle.triggers:
                assert client.planner.cache.peek(t.plan_key) is not None

    def test_changed_promotion_restarts_the_plan_view(self, weights):
        """A promotion that changes a key's plan rebases that key's
        per-plan view: regression checks see only post-promotion
        traffic, while the registry's counters stay monotonic."""
        from dataclasses import replace

        with api.open_engine(device="A100", retune=quiet_policy()) as client:
            serve_widths(client, weights, (64,))
            (key,) = plan_traffic(client.metrics.to_dict())
            # a stale live plan, so the re-sweep's plan differs from it
            live = client.planner.cache
            stale = live.peek(key)
            live.put(key, replace(stale, predicted_time_s=stale.predicted_time_s * 9))
            cycle = client.retune.run_once()
            assert key in cycle.promoted_keys and cycle.changed == 1
            quiet = client.retune.run_once()  # reads the rebased view
            assert quiet.triggers == []
            serve_widths(client, weights, (64,), per=1)
            since = client.retune._plan_base
            after = plan_traffic(client.metrics.to_dict(), since)[key]
            assert (after["requests"], after["batches"]) == (1, 1)
            served = select(client.metrics.to_dict(), names.REQUESTS, {"plan": key})
            assert sum(s["value"] for s in served) == 3

    def test_promoted_keys_join_the_baseline(self, weights):
        """After a promotion the same traffic no longer cold-misses; with
        cooldown active it does not re-trigger as hot either."""
        policy = quiet_policy(cooldown_s=3600.0)
        with api.open_engine(device="A100", retune=policy) as client:
            serve_widths(client, weights, (64,))
            first = client.retune.run_once()
            assert first.promoted == 1
            second = client.retune.run_once()
            assert second.triggers == []

    def test_status_accumulates(self, weights):
        with api.open_engine(device="A100", retune=quiet_policy()) as client:
            serve_widths(client, weights, (64,))
            client.retune.run_once()
            status = client.retune_status()
            assert status.cycles == 1
            assert status.triggers_total == 1
            assert status.promoted_total == 1
            assert status.last_cycle["snapshot"]
            assert status.last_error is None
            assert status.to_dict()["cycles"] == 1

    def test_warm_started_engine_sees_no_cold_misses(self, weights, tmp_path):
        """The closed loop: ship an artifact from one engine's scheduler,
        warm-start a second engine with it — its traffic is warm."""
        art_dir = tmp_path / "retuned"
        with api.open_engine(
            device="A100", retune=quiet_policy(artifact_dir=art_dir)
        ) as first:
            serve_widths(first, weights, (64, 128))
            cycle = first.retune.run_once()
            assert cycle.artifact is not None
        policy = quiet_policy(hot_share=1.0)
        with api.open_engine(
            device="A100", warm_start=cycle.artifact, retune=policy
        ) as second:
            cache = second.planner.cache
            cache.reset_counters()
            serve_widths(second, weights, (64, 128))
            assert cache.misses == 0
            follow_up = second.retune.run_once()
            assert follow_up.triggers == []

    def test_run_once_is_serialized(self, weights):
        with api.open_engine(device="A100", retune=quiet_policy()) as client:
            serve_widths(client, weights, (64,))
            results = []

            def cycle():
                results.append(client.retune.run_once())

            threads = [threading.Thread(target=cycle) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(results) == 4
            assert client.retune_status().cycles == 4


class TestProvenance:
    def test_artifact_manifest_names_the_snapshot(self, weights, tmp_path):
        art_dir = tmp_path / "retuned"
        with api.open_engine(
            device="A100", retune=quiet_policy(artifact_dir=art_dir)
        ) as client:
            serve_widths(client, weights, (64,))
            doc = client.metrics.to_dict()
            cycle = client.retune.run_once()
        assert cycle.artifact is not None and cycle.artifact.exists()
        manifest = ArtifactManifest.load(manifest_path(cycle.artifact))
        retune = manifest.sweep["retune"]
        requests = int(sum(s["value"] for s in select(doc, names.REQUESTS)))
        assert retune["snapshot"] == cycle.snapshot_fingerprint == _digest(
            {"requests": requests, "plans": plan_traffic(doc)}
        )
        assert retune["cycle"] == 1
        assert [t["plan_key"] for t in retune["triggers"]] == [
            t.plan_key for t in cycle.triggers
        ]
        assert manifest.plans == cycle.promoted
        # the shipped cache itself is a loadable schema-v2 artifact
        payload = json.loads(cycle.artifact.read_text())
        assert payload["version"] == 2

    def test_sequential_promotions_ship_numbered_artifacts(
        self, weights, tmp_path
    ):
        art_dir = tmp_path / "retuned"
        with api.open_engine(
            device="A100", retune=quiet_policy(artifact_dir=art_dir)
        ) as client:
            serve_widths(client, weights, (64,))
            c1 = client.retune.run_once()
            serve_widths(client, weights, (256,))
            c2 = client.retune.run_once()
        assert c1.artifact.parent.name == "retune-0001"
        assert c2.artifact.parent.name == "retune-0002"
        assert [t.plan_key for t in c2.triggers] != []


class TestBackgroundThread:
    def test_timer_thread_runs_cycles(self, weights):
        policy = quiet_policy(interval_s=0.05)
        with api.open_engine(device="A100", retune=policy) as client:
            serve_widths(client, weights, (64,))
            deadline = threading.Event()
            for _ in range(100):
                if client.retune_status().cycles >= 1:
                    break
                deadline.wait(0.05)
            status = client.retune_status()
            assert status.cycles >= 1
            assert status.last_error is None

    def test_stop_is_idempotent(self):
        client = api.open_engine(device="A100", retune=quiet_policy())
        client.retune.stop()
        client.retune.stop()
        client.close()  # close after manual stop is still clean


class TestSterileRetuneBackoff:
    def test_unchanged_retune_backs_off_beyond_cooldown(self, weights):
        """A re-tune that reproduces the identical plan doubles the key's
        effective cooldown: re-sweeping it cannot change anything, so the
        scheduler must not burn its budget on it every cooldown period."""
        import time

        policy = quiet_policy(cooldown_s=0.5)
        with api.open_engine(device="A100", retune=policy) as client:
            serve_widths(client, weights, (64,))
            first = client.retune.run_once()
            assert first.promoted == 1
            assert first.changed == 0  # live plan reproduced: sterile
            key = first.triggers[0].plan_key
            assert client.retune._unchanged_streak[key] == 1
            # past the base cooldown but inside the doubled window
            time.sleep(0.6)
            second = client.retune.run_once()
            assert second.triggers == []

    def test_skipped_keys_cool_down_too(self, weights):
        """Unsweepable (multi-backend) keys must not occupy trigger slots
        on every cycle."""
        from repro.serve.planner import Plan

        policy = quiet_policy(cooldown_s=3600.0)
        with api.open_engine(device="A100", retune=policy) as client:
            key = ("spmm|512x512|n=64|v=8|s=0.900|"
                   "magicube-emulation+cublas-fp16@A100|latency[L8-16,R8-16]")
            publish_batch(
                client.metrics, "ffn", 1e-3, [0.0], backend="magicube-emulation",
                device="A100", plan_key=key, predicted_time_s=1e-3,
            )
            first = client.retune.run_once()
            assert [k for k, _ in first.skipped] == [key]
            assert first.promoted == 0
            second = client.retune.run_once()
            assert second.triggers == []  # cooled down, not spamming


class TestFailedCycle:
    def test_failing_retune_cools_down_and_is_recorded(self, weights):
        """A cycle whose targeted sweep raises must not hot-retry the
        identical failing sweep on the next wake-up, and the failure is
        visible in the status."""
        policy = quiet_policy(cooldown_s=3600.0)
        with api.open_engine(device="A100", retune=policy) as client:
            key = ("spmm|512x512|n=64|v=8|s=0.900|"
                   "ghost-backend@A100|latency[L8-16,R8-16]")
            publish_batch(
                client.metrics, "ffn", 1e-3, [0.0], backend="ghost-backend",
                device="A100", plan_key=key, predicted_time_s=1e-3,
            )
            with pytest.raises(Exception):
                client.retune.run_once()
            status = client.retune_status()
            assert status.cycles == 1  # the failed cycle is accounted
            assert status.last_cycle["error"] is not None
            # the failing key is under cooldown: no immediate retry
            second = client.retune.run_once()
            assert second.triggers == []
            assert second.error is None
