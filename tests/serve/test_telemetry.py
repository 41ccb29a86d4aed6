"""Telemetry: the read-only serving view over the metrics registry."""

import numpy as np
import pytest

import repro
from repro import api
from repro.obs import names
from repro.obs.export import load_json, render_json, write_snapshot
from repro.obs.metrics import merge_histograms, select
from repro.serve.batcher import BatchPolicy
from repro.serve.telemetry import Telemetry, plan_traffic, publish_batch


def _reject(t: Telemetry, session: str, count: int = 1) -> None:
    """Count admission rejections the way the engine does."""
    t.metrics.counter(names.REJECTIONS, {"session": session}).inc(count)


class TestPerBackendColumns:
    def test_batches_aggregate_by_backend_device(self):
        t = Telemetry()
        publish_batch(t.metrics, "s1", 1e-3, [0.0],
                       backend="magicube-emulation", device="A100")
        publish_batch(t.metrics, "s2", 2e-3, [0.0, 0.0],
                       backend="magicube-emulation", device="A100")
        publish_batch(t.metrics, "s1", 4e-3, [0.0],
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
        publish_batch(t.metrics, "s1", 1e-3, [0.0])
        assert t.backends() == []
        assert t.summary("s1").requests == 1

    def test_unknown_pair_summarizes_empty(self):
        t = Telemetry()
        assert t.backend_summary("nope", "A100").requests == 0

    def test_render_includes_backend_table_and_rejections(self):
        t = Telemetry()
        publish_batch(t.metrics, "s1", 1e-3, [0.0],
                       backend="magicube-emulation", device="A100")
        _reject(t, "s1")
        text = t.render()
        assert "per-backend telemetry" in text
        assert "magicube-emulation" in text
        assert "rejected" in text


class TestRejections:
    def test_fully_rejected_session_stays_visible(self):
        """A session whose every request was rejected still gets a
        report row; the TOTAL rejected count always adds up."""
        t = Telemetry()
        publish_batch(t.metrics, "served", 1e-3, [0.0])
        _reject(t, "throttled")
        assert t.sessions() == ["served", "throttled"]
        assert t.summary("throttled").requests == 0
        assert "throttled" in t.render()

    def test_counts_per_session_and_total(self):
        t = Telemetry()
        _reject(t, "a")
        _reject(t, "a", 2)
        _reject(t, "b")
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
    """plan_traffic: the re-tuning scheduler's per-plan input, read from
    a live registry or from the metrics file it exports to."""

    KEY = "spmm|512x512|n=64|v=8|s=0.900|magicube-emulation@A100|latency[L8-16,R8-16]"

    def record(self, t: Telemetry) -> None:
        publish_batch(t.metrics, "ffn", 1e-3, [0.0, 0.0],
                       backend="magicube-emulation", device="A100",
                       plan_key=self.KEY, predicted_time_s=9e-4)
        publish_batch(t.metrics, "ffn", 2e-3, [0.0],
                       backend="magicube-emulation", device="A100",
                       plan_key=self.KEY, predicted_time_s=9e-4)
        _reject(t, "ffn", 2)

    @staticmethod
    def traffic(t: Telemetry) -> dict:
        return plan_traffic(t.metrics.to_dict())

    def test_identical_recordings_produce_identical_snapshots(self):
        a, b = Telemetry(), Telemetry()
        self.record(a)
        self.record(b)
        assert self.traffic(a) == self.traffic(b)
        assert render_json(a.metrics) == render_json(b.metrics)

    def test_snapshot_is_stable_across_time(self):
        """No wall-clock field: reading the same state twice (later)
        yields the same per-plan traffic."""
        import time

        t = Telemetry()
        self.record(t)
        first = self.traffic(t)
        time.sleep(0.01)
        assert self.traffic(t) == first

    def test_json_round_trip(self):
        t = Telemetry()
        self.record(t)
        again = load_json(render_json(t.metrics))
        assert plan_traffic(again.to_dict()) == self.traffic(t)
        assert plan_traffic(again.to_dict())[self.KEY]["requests"] == 3

    def test_save_load_round_trip(self, tmp_path):
        t = Telemetry()
        self.record(t)
        path = write_snapshot(t.metrics, tmp_path / "metrics.json")
        loaded = load_json(path.read_text())
        assert plan_traffic(loaded.to_dict()) == self.traffic(t)

    def test_plan_stats_feed_the_scheduler(self):
        t = Telemetry()
        self.record(t)
        stats = self.traffic(t)[self.KEY]
        assert stats["requests"] == 3
        assert stats["batches"] == 2
        assert stats["launches"] == 2
        assert stats["modelled_busy_s"] == pytest.approx(3e-3)
        assert stats["predicted_time_s"] == pytest.approx(9e-4)
        assert stats["backend"] == "magicube-emulation"
        assert stats["device"] == "A100"
        assert list(self.traffic(t)) == [self.KEY]

    def test_sddmm_launch_accounting(self):
        """Item-by-item dispatches record their launch count so observed
        per-launch time stays comparable to the plan's estimate."""
        t = Telemetry()
        publish_batch(t.metrics, "att", 4e-3, [0.0] * 4,
                       backend="magicube-emulation", device="A100",
                       plan_key="k", predicted_time_s=1e-3, launches=4)
        stats = self.traffic(t)["k"]
        assert stats["launches"] == 4
        assert stats["modelled_busy_s"] / stats["launches"] == pytest.approx(1e-3)

    def test_snapshot_matches_rendered_summary_tables(self):
        """A registry re-loaded from its metrics file renders the same
        summary numbers and table cells as the live one (minus the
        wall-clock columns)."""
        t = Telemetry()
        self.record(t)
        loaded = Telemetry(load_json(render_json(t.metrics)))
        for live, again in (
            (t.summary("ffn"), loaded.summary("ffn")),
            (t.summary(), loaded.summary()),
            (t.backend_summary("magicube-emulation", "A100"),
             loaded.backend_summary("magicube-emulation", "A100")),
        ):
            assert (live.requests, live.batches) == (again.requests, again.batches)
            assert [live.p50_ms, live.p95_ms, live.p99_ms] == [
                again.p50_ms, again.p95_ms, again.p99_ms
            ]
            assert live.modelled_throughput_rps == again.modelled_throughput_rps
        assert loaded.rejections() == t.rejections() == 2
        summary = t.summary("ffn")
        backend = t.backend_summary("magicube-emulation", "A100")
        text = loaded.render()
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
        plans = plan_traffic(client.metrics.to_dict())
        assert len(plans) == 1
        (key,), (stats,) = plans.keys(), plans.values()
        assert key.startswith("spmm|64x64|n=16")
        assert stats["predicted_time_s"] > 0
        assert stats["requests"] == 1

    def test_rebase_drops_only_the_named_keys(self):
        t = Telemetry()
        self.record(t)
        publish_batch(t.metrics, "att", 1e-3, [0.0], plan_key="other")
        lifetime = self.traffic(t)
        since = {self.KEY: lifetime[self.KEY]}
        assert list(plan_traffic(t.metrics.to_dict(), since)) == ["other"]
        # traffic after the rebase counts from zero
        publish_batch(t.metrics, "ffn", 1e-3, [0.0], plan_key=self.KEY)
        after = plan_traffic(t.metrics.to_dict(), since)[self.KEY]
        assert (after["requests"], after["batches"]) == (1, 1)
        # session views and the registry's counters are untouched
        assert t.summary("ffn").requests == 4


class TestOneStore:
    """The serving view and the registry are one store: every reader
    reports the same numbers for the same run."""

    def test_view_equals_the_registry_it_reads(self, rng):
        from repro.bench.loadgen import _latency_stats
        from repro.obs.export import summarize
        from tests.conftest import make_structured_sparse

        # three SpMM weight classes of different sizes, plus SDDMM and
        # attention: modelled latencies spread over several buckets
        weights = [
            make_structured_sparse(rng, n, n, 8, 0.7) for n in (64, 128, 256)
        ]
        mask = make_structured_sparse(rng, 64, 64, 8, 0.9)
        with repro.open_engine(device="A100") as client:
            futures = []
            for i in range(15):
                w = weights[i % 3]
                futures.append(client.submit(api.SpmmRequest(
                    lhs=w, rhs=rng.integers(-8, 8, size=(w.shape[1], 16)),
                )))
            futures.append(client.submit(api.SddmmRequest(
                mask=mask, a=rng.integers(-8, 8, size=(64, 32)),
                b=rng.integers(-8, 8, size=(32, 64)),
            )))
            futures.append(client.submit(
                api.AttentionRequest(seq_len=128, num_layers=1)
            ))
            for f in futures:
                f.result(timeout=30)
            summary = client.telemetry.summary()
            doc = client.metrics.to_dict()
            report = client.report()
            obs_summary = summarize(client.metrics)

        latency = merge_histograms(select(doc, names.REQUEST_MODELLED))
        expected = [latency.quantile(q) * 1e3 for q in (0.50, 0.95, 0.99)]
        assert [summary.p50_ms, summary.p95_ms, summary.p99_ms] == expected
        assert summary.requests == latency.count == 17
        sizes = merge_histograms(select(doc, names.BATCH_SIZE))
        assert summary.mean_batch_size == sizes.mean
        assert summary.modelled_busy_s == sum(
            s["value"] for s in select(doc, names.MODELLED_BUSY)
        )
        # BENCH_serve.json's modelled latency block reads the same merge
        stats = _latency_stats(doc, names.REQUEST_MODELLED)
        assert [stats["p50"], stats["p95"], stats["p99"]] == [
            latency.quantile(q) for q in (0.50, 0.95, 0.99)
        ]
        # the demo table's TOTAL row and `repro obs summary`'s merged row
        total_row = next(ln for ln in report.splitlines() if "TOTAL" in ln)
        assert all(f"{ms:.4f}" in total_row for ms in expected)
        merged_row = next(
            ln for ln in obs_summary.splitlines()
            if names.REQUEST_MODELLED in ln and "(all)" in ln
        )
        assert all(
            f"{latency.quantile(q):.3e}" in merged_row
            for q in (0.50, 0.95, 0.99)
        )

    def test_concurrent_publishes_lose_no_update(self):
        """Batcher threads publish into one registry at once; the view
        must count every batch (a lost read-modify-write would not)."""
        import sys
        import threading

        t = Telemetry()
        threads, per = 8, 300

        def publish(i: int) -> None:
            for _ in range(per):
                publish_batch(t.metrics, f"s{i % 2}", 1e-6, [0.0, 1e-5],
                              backend="b", device="d", plan_key="k")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=publish, args=(i,))
                for i in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(old)
        total = t.summary()
        assert total.batches == threads * per
        assert total.requests == 2 * threads * per
        assert plan_traffic(t.metrics.to_dict())["k"]["launches"] == threads * per
        latency = merge_histograms(
            select(t.metrics.to_dict(), names.REQUEST_MODELLED)
        )
        assert latency.count == 2 * threads * per

    def test_session_view_is_a_label_projection(self):
        t = Telemetry()
        publish_batch(t.metrics, "a", 1e-3, [0.0, 1e-4],
                      backend="magicube-emulation", device="A100")
        publish_batch(t.metrics, "b", 3e-3, [0.0],
                      backend="magicube-emulation", device="A100")
        doc = t.metrics.to_dict()
        for session in ("a", "b"):
            mine = merge_histograms(
                select(doc, names.REQUEST_MODELLED, {"session": session})
            )
            assert t.summary(session).p99_ms == mine.quantile(0.99) * 1e3
        both = t.backend_summary("magicube-emulation", "A100")
        assert both.requests == 3 and both.batches == 2
