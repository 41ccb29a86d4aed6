"""The serving stack under observation: traces, ids, metrics, overhead."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro import api
from repro.errors import AdmissionError
from repro.obs import names
from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry, merge_histograms, select
from repro.obs.names import STANDARD_METRICS
from repro.obs.trace import Tracer
from repro.serve.batcher import BatchPolicy


@pytest.fixture
def lhs():
    return repro.SparseMatrix.from_dense(
        np.eye(64, dtype=np.int8), vector_length=8
    )


def _rhs():
    return np.ones((64, 8), dtype=np.int8)


class TestTracedRequests:
    def test_response_carries_the_full_span_tree(self, lhs):
        with repro.open_engine(metrics=MetricsRegistry(), trace=True) as client:
            r = client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session="s"))
        spans = {s["name"]: s for s in r.trace["spans"]}
        assert set(spans) >= {
            "admission", "plan-resolution", "queue", "kernel-launch",
        }
        assert r.trace["request_id"] == r.request_id == 1
        assert r.trace["op"] == "spmm" and r.trace["session"] == "s"
        # wall + modelled timings on the launch span
        launch = spans["kernel-launch"]
        assert launch["wall_s"] > 0.0
        assert launch["attrs"]["modelled_time_s"] == pytest.approx(r.time_s)
        assert launch["attrs"]["plan_key"] == r.plan.key
        assert launch["attrs"]["backend"] == r.backend
        assert spans["queue"]["attrs"]["queue_wait_s"] == pytest.approx(
            r.queue_wait_s
        )
        assert spans["admission"]["attrs"]["queue_depth"] == 0
        assert spans["plan-resolution"]["attrs"]["plan_key"] == r.plan.key

    def test_every_request_class_is_traceable(self, lhs):
        mask = repro.SparseMatrix.from_dense(
            np.eye(64, dtype=np.int8), vector_length=8
        )
        requests = [
            api.SpmmRequest(lhs=lhs, rhs=_rhs()),
            api.SddmmRequest(
                mask=mask,
                a=np.ones((64, 32), dtype=np.int8),
                b=np.ones((32, 64), dtype=np.int8),
            ),
            api.AttentionRequest(seq_len=128, num_layers=1),
        ]
        with repro.open_engine(metrics=MetricsRegistry(), trace=True) as client:
            for req in requests:
                r = client.run(req)
                spans = [s["name"] for s in r.trace["spans"]]
                assert "kernel-launch" in spans, req.op
                assert r.trace["op"] == req.op

    def test_traces_ring_buffer_on_the_tracer(self, lhs):
        tracer = Tracer(enabled=True, keep=8)
        with repro.open_engine(metrics=MetricsRegistry(), tracer=tracer) as client:
            for _ in range(3):
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
        assert [t.request_id for t in tracer.finished()] == [1, 2, 3]

    def test_request_cancelled_while_queued_leaves_no_trace(self, lhs):
        """A cancelled rider never reaches execute, so no served trace
        (queue and kernel-launch spans) is retired for it."""
        with repro.open_engine(
            metrics=MetricsRegistry(), trace=True,
            policy=BatchPolicy(max_batch_size=8, max_wait_s=60.0),
        ) as client:
            kept = client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            dropped = client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            assert dropped.cancel()
            client.flush()
            served = kept.result(timeout=30)
            assert served.batch_size == 1
            assert [t.request_id for t in client.tracer.finished()] == [
                served.request_id
            ]

    def test_untraced_engine_returns_no_trace_but_same_answers(self, lhs):
        with repro.open_engine(metrics=MetricsRegistry()) as client:
            r = client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
        assert r.trace is None
        assert r.request_id == 1  # ids are assigned regardless of tracing
        with repro.open_engine(metrics=MetricsRegistry(), trace=True) as client:
            traced = client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
        np.testing.assert_array_equal(r.output, traced.output)


class TestRequestIds:
    def test_ids_are_monotonic_across_sessions(self, lhs):
        with repro.open_engine(metrics=MetricsRegistry()) as client:
            ids = [
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs())).request_id
                for _ in range(3)
            ]
            ids.append(
                client.run(api.AttentionRequest(seq_len=128, num_layers=1))
                .request_id
            )
        assert ids == [1, 2, 3, 4]

    def test_submitted_request_ids_follow_submission_order(self, lhs):
        with repro.open_engine(metrics=MetricsRegistry()) as client:
            futures = [
                client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
                for _ in range(3)
            ]
            ids = [f.result(timeout=30).request_id for f in futures]
        assert ids == [1, 2, 3]

    def test_one_shot_calls_have_no_request_id(self, lhs):
        r = api.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
        assert r.request_id is None and r.trace is None


class TestAdmission:
    def _congested(self, metrics, **kwargs):
        # max_wait_s high enough that nothing flushes while we submit
        return repro.open_engine(
            policy=BatchPolicy(
                max_batch_size=64, max_wait_s=5.0, max_queue_depth=1
            ),
            metrics=metrics,
            **kwargs,
        )

    def test_rejection_names_the_request_id(self, lhs):
        registry = MetricsRegistry()
        with self._congested(registry) as client:
            client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session="s"))
            with pytest.raises(AdmissionError, match=r"request #2:"):
                client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session="s"))
            client.flush()
        counter = registry.counter(names.REJECTIONS, {"session": "s"})
        assert counter.value == 1

    def test_rejected_trace_is_finished_and_marked(self, lhs):
        tracer = Tracer(enabled=True)
        with self._congested(MetricsRegistry(), tracer=tracer) as client:
            client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            with pytest.raises(AdmissionError):
                client.submit(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            client.flush()
        rejected = [t for t in tracer.finished() if t.request_id == 2]
        assert rejected
        admission = rejected[0].find("admission")
        assert admission.attrs["rejected"] is True
        assert admission.end_s is not None


class TestMetricsPublication:
    def test_serving_populates_the_standard_families(self, lhs):
        registry = MetricsRegistry()
        with repro.open_engine(metrics=registry) as client:
            for _ in range(4):
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session="s"))
        doc = registry.to_dict()

        def total(name):
            return sum(s["value"] for s in select(doc, name, {"session": "s"}))

        assert total(names.REQUESTS) == 4
        assert total(names.BATCHES) >= 1
        assert total(names.MODELLED_BUSY) > 0
        # every serving series carries session/backend/device labels
        (series,) = select(doc, names.REQUEST_WALL)
        assert set(series["labels"]) == {"session", "backend", "device"}
        (plan,) = {s["labels"]["plan"] for s in select(doc, names.REQUESTS)}
        assert plan and select(doc, names.PLAN_PREDICTED, {"plan": plan})
        wall = merge_histograms(select(doc, names.REQUEST_WALL))
        modelled = merge_histograms(select(doc, names.REQUEST_MODELLED))
        assert wall.count == modelled.count == 4
        assert wall.sum > modelled.sum  # wall includes queueing + dispatch
        hits = registry.counter(names.CACHE_HITS).value
        misses = registry.counter(names.CACHE_MISSES).value
        assert misses >= 1 and hits + misses >= 4

    def test_prometheus_export_names_every_documented_metric(self, lhs):
        registry = MetricsRegistry()
        with repro.open_engine(metrics=registry) as client:
            client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
        families = parse_prometheus(render_prometheus(registry))
        assert set(families) == {m[0] for m in STANDARD_METRICS}

    def test_default_engines_stay_separate(self, lhs):
        """An engine opened without ``metrics=`` owns a fresh registry:
        two default engines opened in turn each report only their own
        sessions (and neither touches the process-wide registry)."""
        from repro.obs.metrics import get_registry

        process_wide = get_registry().to_dict()
        seen = []
        for session in ("first", "second"):
            with repro.open_engine() as client:
                assert client.metrics is not get_registry()
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session=session))
                seen.append((client.telemetry.sessions(), client.summary()))
        assert [sessions for sessions, _ in seen] == [["first"], ["second"]]
        assert [summary["total"]["requests"] for _, summary in seen] == [1, 1]
        assert get_registry().to_dict() == process_wide

    def test_retune_scheduler_publishes_cycles(self, lhs):
        from repro.autotune import RetunePolicy

        registry = MetricsRegistry()
        with repro.open_engine(
            metrics=registry, retune=RetunePolicy(interval_s=3600.0)
        ) as client:
            client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            client.retune.run_once()
        assert registry.counter(names.RETUNE_CYCLES).value >= 1


class TestKernelWallResolution:
    def test_kernel_wall_buckets_resolve_below_a_microsecond(self):
        """The fastpath regression: sub-µs kernels need sub-µs buckets.

        Fastpath kernels finish in hundreds of nanoseconds. Under the
        default time buckets (floor 1 µs) every observation lands in
        the first bucket and the p50 interpolates to a constant ~0.5 µs
        whatever the true latency — the KERNEL_WALL-specific layout
        must keep the quantiles meaningful instead.
        """
        from repro.obs.names import KERNEL_WALL_BUCKETS_S, declare_standard

        assert KERNEL_WALL_BUCKETS_S[0] == pytest.approx(1e-8)
        declared = dict(
            (name, buckets) for name, _, _, buckets in STANDARD_METRICS
        )
        assert declared[names.KERNEL_WALL] == KERNEL_WALL_BUCKETS_S

        registry = declare_standard(MetricsRegistry())
        h = registry.histogram(
            names.KERNEL_WALL, {"op": "spmm", "backend": "fastpath-vectorized"}
        )
        true_s = 3e-7  # a realistic fastpath kernel wall
        for _ in range(100):
            h.observe(true_s)
        p50 = h.quantile(0.50)
        # within one power-of-four bucket of the truth, not a constant
        assert true_s / 4 <= p50 <= true_s * 4, (
            f"p50 {p50:.3e}s is not within a bucket of the true {true_s:.3e}s"
        )

    def test_served_requests_record_kernel_wall_at_fine_resolution(self, lhs):
        from repro.obs.names import KERNEL_WALL_BUCKETS_S

        registry = MetricsRegistry()
        with repro.open_engine(metrics=registry) as client:
            client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
        samples = registry.samples(names.KERNEL_WALL)
        assert samples
        for _, h in samples:
            assert h.buckets == KERNEL_WALL_BUCKETS_S


class TestDisabledOverhead:
    def test_disabled_tracer_costs_under_five_percent_of_a_request(self, lhs):
        """The null-trace path must be invisible next to a real request.

        Measures the *entire* per-request disabled-path work (hand out
        the null trace, guard on it, open/close a null span, retire it)
        and asserts it is < 5% of the measured mean request wall time
        on a serve microload — the acceptance bound, with ~1000x of
        headroom in practice.
        """
        registry = MetricsRegistry()
        with repro.open_engine(metrics=registry) as client:
            assert not client.tracer.enabled
            for _ in range(8):
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session="s"))
        wall = merge_histograms(select(registry.to_dict(), names.REQUEST_WALL))
        mean_request_s = wall.mean
        assert mean_request_s > 0

        tracer = Tracer(enabled=False)
        n = 10_000
        t0 = time.perf_counter()
        for i in range(n):
            trace = tracer.request(op="spmm", session="s", request_id=i)
            if trace:  # the hot-path guard the engine uses
                raise AssertionError("disabled tracer handed out a live trace")
            with trace.span("admission", queue_depth=0):
                pass
            trace.add_span("queue", 0.0, 0.0)
            tracer.finish(trace)
        per_request_s = (time.perf_counter() - t0) / n
        assert per_request_s < 0.05 * mean_request_s, (
            f"disabled-path cost {per_request_s * 1e6:.2f}us is not <5% of "
            f"the {mean_request_s * 1e3:.2f}ms mean request"
        )
