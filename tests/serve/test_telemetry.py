"""Telemetry: per-(backend, device) columns and rejection counters."""

import numpy as np
import pytest

import repro
from repro import api
from repro.serve.batcher import BatchPolicy
from repro.serve.telemetry import Telemetry


class TestPerBackendColumns:
    def test_batches_aggregate_by_backend_device(self):
        t = Telemetry()
        t.record_batch("s1", "spmm", 1e-3, [0.0],
                       backend="magicube-emulation", device="A100")
        t.record_batch("s2", "spmm", 2e-3, [0.0, 0.0],
                       backend="magicube-emulation", device="A100")
        t.record_batch("s1", "spmm", 4e-3, [0.0],
                       backend="cublas-fp16", device="H100")
        assert t.backends() == [
            ("cublas-fp16", "H100"), ("magicube-emulation", "A100"),
        ]
        mc = t.backend_summary("magicube-emulation", "A100")
        assert mc.requests == 3 and mc.batches == 2
        cb = t.backend_summary("cublas-fp16", "H100")
        assert cb.requests == 1
        assert cb.p50_ms > mc.p50_ms

    def test_unattributed_batches_only_in_session_view(self):
        t = Telemetry()
        t.record_batch("s1", "spmm", 1e-3, [0.0])
        assert t.backends() == []
        assert t.summary("s1").requests == 1

    def test_unknown_pair_summarizes_empty(self):
        t = Telemetry()
        assert t.backend_summary("nope", "A100").requests == 0

    def test_render_includes_backend_table_and_rejections(self):
        t = Telemetry()
        t.record_batch("s1", "spmm", 1e-3, [0.0],
                       backend="magicube-emulation", device="A100")
        t.record_rejection("s1")
        text = t.render()
        assert "per-backend telemetry" in text
        assert "magicube-emulation" in text
        assert "rejected" in text


class TestRejections:
    def test_fully_rejected_session_stays_visible(self):
        """A session whose every request was rejected still gets a
        report row; the TOTAL rejected count always adds up."""
        t = Telemetry()
        t.record_batch("served", "spmm", 1e-3, [0.0])
        t.record_rejection("throttled")
        assert t.sessions() == ["served", "throttled"]
        assert t.summary("throttled").requests == 0
        assert "throttled" in t.render()

    def test_counts_per_session_and_total(self):
        t = Telemetry()
        t.record_rejection("a")
        t.record_rejection("a", count=2)
        t.record_rejection("b")
        assert t.rejections("a") == 3
        assert t.rejections("b") == 1
        assert t.rejections() == 4
        assert t.rejections("never-seen") == 0


class TestEngineIntegration:
    def test_summary_breaks_out_backends(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-8, 8, size=(64, 64))
        with repro.open_engine(device="A100") as client:
            client.run(api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-8, 8, size=(64, 16)),
                session="ffn",
            ))
            summary = client.summary()
        assert summary["rejected"] == 0
        (pair,) = summary["backends"]
        backend, device = pair.split("@")
        assert device == "A100"
        assert summary["backends"][pair]["requests"] == 1
        assert "per-backend telemetry" in client.report()

    def test_admission_rejections_reach_telemetry(self):
        from repro.errors import AdmissionError

        rng = np.random.default_rng(0)
        weights = rng.integers(-8, 8, size=(64, 64))
        policy = BatchPolicy(
            max_batch_size=64, max_wait_s=5.0, max_queue_depth=1
        )
        with repro.open_engine(device="A100", policy=policy) as client:
            request = api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-8, 8, size=(64, 16)),
                session="ffn",
            )
            first = client.submit(request)
            with pytest.raises(AdmissionError):
                client.submit(request)
            client.flush()
            first.result(timeout=5)
            assert client.telemetry.rejections("ffn") == 1
            assert client.summary()["rejected"] == 1


class TestSnapshot:
    """TelemetrySnapshot: the re-tuning scheduler's input contract."""

    KEY = "spmm|512x512|n=64|v=8|s=0.900|magicube-emulation@A100|latency[L8-16,R8-16]"

    def record(self, t: Telemetry) -> None:
        t.record_batch("ffn", "spmm", 1e-3, [0.0, 0.0],
                       backend="magicube-emulation", device="A100",
                       plan_key=self.KEY, predicted_time_s=9e-4)
        t.record_batch("ffn", "spmm", 2e-3, [0.0],
                       backend="magicube-emulation", device="A100",
                       plan_key=self.KEY, predicted_time_s=9e-4)
        t.record_rejection("ffn", 2)

    def test_identical_recordings_produce_identical_snapshots(self):
        a, b = Telemetry(), Telemetry()
        self.record(a)
        self.record(b)
        assert a.snapshot() == b.snapshot()
        assert a.snapshot().fingerprint == b.snapshot().fingerprint

    def test_snapshot_is_stable_across_time(self):
        """Wall-clock fields are excluded: snapshotting the same state
        twice (later) yields the same snapshot."""
        import time

        t = Telemetry()
        self.record(t)
        first = t.snapshot()
        time.sleep(0.01)
        assert t.snapshot() == first

    def test_json_round_trip(self):
        from repro.serve.telemetry import TelemetrySnapshot

        t = Telemetry()
        self.record(t)
        snap = t.snapshot()
        again = TelemetrySnapshot.from_json(snap.to_json())
        assert again == snap
        assert again.fingerprint == snap.fingerprint
        assert again.plans[self.KEY]["requests"] == 3

    def test_save_load_round_trip(self, tmp_path):
        from repro.serve.telemetry import TelemetrySnapshot

        t = Telemetry()
        self.record(t)
        path = t.snapshot().save(tmp_path / "telemetry.json")
        assert TelemetrySnapshot.load(path) == t.snapshot()

    def test_plan_stats_feed_the_scheduler(self):
        t = Telemetry()
        self.record(t)
        snap = t.snapshot()
        stats = snap.plans[self.KEY]
        assert stats["requests"] == 3
        assert stats["batches"] == 2
        assert stats["launches"] == 2
        assert stats["modelled_busy_s"] == pytest.approx(3e-3)
        assert stats["predicted_time_s"] == pytest.approx(9e-4)
        assert stats["backend"] == "magicube-emulation"
        assert stats["device"] == "A100"
        assert t.plans() == [self.KEY]

    def test_sddmm_launch_accounting(self):
        """Item-by-item dispatches record their launch count so observed
        per-launch time stays comparable to the plan's estimate."""
        t = Telemetry()
        t.record_batch("att", "sddmm", 4e-3, [0.0] * 4,
                       backend="magicube-emulation", device="A100",
                       plan_key="k", predicted_time_s=1e-3, launches=4)
        stats = t.snapshot().plans["k"]
        assert stats["launches"] == 4
        assert stats["modelled_busy_s"] / stats["launches"] == pytest.approx(1e-3)

    def test_snapshot_matches_rendered_summary_tables(self):
        """The snapshot's numbers are exactly the render()/summary()
        numbers (minus the wall-clock columns)."""
        t = Telemetry()
        self.record(t)
        snap = t.snapshot()
        summary = t.summary("ffn")
        assert snap.sessions["ffn"]["requests"] == summary.requests
        assert snap.sessions["ffn"]["batches"] == summary.batches
        assert snap.sessions["ffn"]["p50_ms"] == summary.p50_ms
        assert snap.sessions["ffn"]["p95_ms"] == summary.p95_ms
        assert snap.sessions["ffn"]["p99_ms"] == summary.p99_ms
        assert snap.sessions["ffn"]["modelled_throughput_rps"] == (
            summary.modelled_throughput_rps
        )
        backend = t.backend_summary("magicube-emulation", "A100")
        key = "magicube-emulation@A100"
        assert snap.backends[key]["requests"] == backend.requests
        assert snap.backends[key]["p99_ms"] == backend.p99_ms
        assert snap.rejections == {"ffn": 2}
        assert snap.total["requests"] == t.summary().requests
        assert "wall_s" not in snap.total
        # and the rendered table carries the same cells
        text = t.render()
        assert f"{summary.p50_ms:.4f}" in text
        assert f"{backend.p99_ms:.4f}" in text

    def test_engine_attributes_plans_in_snapshot(self, rng):
        """Served traffic shows up per plan key with the plan's cost
        estimate attached (the scheduler's regression input)."""
        from tests.conftest import make_structured_sparse

        weights = make_structured_sparse(rng, 64, 64, 8, 0.7)
        with repro.open_engine(device="A100") as client:
            client.run(api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-8, 8, size=(64, 16)),
                session="ffn",
            ))
        snap = client.telemetry.snapshot()
        assert len(snap.plans) == 1
        (key,), (stats,) = snap.plans.keys(), snap.plans.values()
        assert key.startswith("spmm|64x64|n=16")
        assert stats["predicted_time_s"] > 0
        assert stats["requests"] == 1

    def test_reset_plans_drops_only_the_named_keys(self):
        t = Telemetry()
        self.record(t)
        t.record_batch("att", "spmm", 1e-3, [0.0], plan_key="other")
        t.reset_plans([self.KEY, "never-seen"])
        assert t.plans() == ["other"]
        # session/backend views are untouched
        assert t.summary("ffn").requests == 3
