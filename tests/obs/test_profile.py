"""Self-time attribution over hand-built and served span trees."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import api
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import attribute
from repro.obs.trace import Tracer


class TestAttribute:
    def _doc(self):
        return {
            "request_id": 1, "op": "spmm", "session": "s",
            "spans": [
                {"span_id": 1, "parent_id": None, "name": "request",
                 "wall_s": 0.010, "attrs": {}},
                {"span_id": 2, "parent_id": 1, "name": "kernel-launch",
                 "wall_s": 0.007,
                 "attrs": {"backend": "numpy", "plan_key": "k1"}},
            ],
        }

    def test_self_time_is_wall_minus_children(self):
        rows = attribute([self._doc()])
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["kernel-launch"]["self_s"] == pytest.approx(0.007)
        assert by_phase["request"]["self_s"] == pytest.approx(0.003)
        assert by_phase["request"]["wall_s"] == pytest.approx(0.010)

    def test_rows_sorted_by_self_time_desc(self):
        rows = attribute([self._doc()] * 3)
        assert [r["phase"] for r in rows] == ["kernel-launch", "request"]
        assert rows[0]["count"] == 3

    def test_aggregates_by_backend_and_plan_key(self):
        other = self._doc()
        other["spans"][1]["attrs"]["plan_key"] = "k2"
        rows = attribute([self._doc(), other])
        keys = {(r["phase"], r["plan_key"]) for r in rows}
        assert ("kernel-launch", "k1") in keys
        assert ("kernel-launch", "k2") in keys

    def test_accepts_live_traces(self):
        tracer = Tracer(enabled=True)
        t = tracer.request(op="spmm", session="s", request_id=1)
        with t.span("outer"):
            pass
        tracer.finish(t)
        rows = attribute(tracer.finished())
        assert rows and rows[0]["phase"] == "outer"

    def test_negative_self_time_clamps_to_zero(self):
        doc = self._doc()
        doc["spans"][1]["wall_s"] = 0.5  # child outlives parent (clock skew)
        rows = attribute([doc])
        request = next(r for r in rows if r["phase"] == "request")
        assert request["self_s"] == 0.0

    def test_no_traces_give_no_rows(self):
        assert attribute([]) == []
        assert attribute([{"request_id": 1, "spans": []}]) == []

    def test_null_traces_are_skipped(self):
        tracer = Tracer(enabled=False)
        null = tracer.request(op="spmm", session="s", request_id=1)
        assert attribute([null, self._doc()]) == attribute([self._doc()])

    def test_missing_backend_and_plan_key_read_as_dash(self):
        rows = attribute([self._doc()])
        request = next(r for r in rows if r["phase"] == "request")
        assert (request["backend"], request["plan_key"]) == ("-", "-")
        launch = next(r for r in rows if r["phase"] == "kernel-launch")
        assert (launch["backend"], launch["plan_key"]) == ("numpy", "k1")

    def test_grandchildren_charge_only_their_parent(self):
        doc = self._doc()
        doc["spans"].append({
            "span_id": 3, "parent_id": 2, "name": "pack",
            "wall_s": 0.004, "attrs": {},
        })
        by_phase = {r["phase"]: r for r in attribute([doc])}
        assert by_phase["pack"]["self_s"] == pytest.approx(0.004)
        assert by_phase["kernel-launch"]["self_s"] == pytest.approx(0.003)
        assert by_phase["request"]["self_s"] == pytest.approx(0.003)
        total_self = sum(r["self_s"] for r in by_phase.values())
        assert total_self == pytest.approx(0.010)

    def test_span_ids_are_scoped_to_their_trace(self):
        """Every trace numbers its spans from 1; a child in one trace
        must not be subtracted from a span of another."""
        lone = {
            "request_id": 2, "op": "spmm", "session": "s",
            "spans": [{"span_id": 1, "parent_id": None, "name": "request",
                       "wall_s": 0.010, "attrs": {}}],
        }
        rows = attribute([self._doc(), lone])
        request = next(r for r in rows if r["phase"] == "request")
        assert request["count"] == 2
        assert request["self_s"] == pytest.approx(0.003 + 0.010)

    def test_equal_self_time_orders_by_phase_name(self):
        doc = {
            "request_id": 1, "op": "spmm", "session": "s",
            "spans": [
                {"span_id": i, "parent_id": None, "name": name,
                 "wall_s": 0.002, "attrs": {}}
                for i, name in enumerate(("queue", "decode", "request"), 1)
            ],
        }
        assert [r["phase"] for r in attribute([doc])] == [
            "decode", "queue", "request",
        ]

    def test_exported_log_attributes_like_live_traces(self, tmp_path):
        """``repro obs profile`` reads the ``.trace.jsonl`` export; its
        table must equal the one built from the live traces."""
        tracer = Tracer(enabled=True)
        for rid in range(3):
            t = tracer.request(op="spmm", session="s", request_id=rid)
            with t.span("request"):
                with t.span("kernel-launch", backend="numpy", plan_key="k"):
                    pass
            tracer.finish(t)
        path = tracer.export_jsonl(tmp_path / "t.trace.jsonl")
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert attribute(docs) == attribute(tracer.finished())


def _requests():
    """One SpMM and one SDDMM request over the same 64×64 mask."""
    mask = repro.SparseMatrix.from_dense(
        np.eye(64, dtype=np.int8), vector_length=8
    )
    spmm = api.SpmmRequest(lhs=mask, rhs=np.ones((64, 8), dtype=np.int8))
    sddmm = api.SddmmRequest(
        mask=mask,
        a=np.ones((64, 32), dtype=np.int8),
        b=np.ones((32, 64), dtype=np.int8),
    )
    return spmm, sddmm


class TestServedEngine:
    def test_kernel_and_queue_rows_count_every_served_request(self):
        spmm, sddmm = _requests()
        with repro.open_engine(trace=True, metrics=MetricsRegistry()) as client:
            plan_keys = {
                "spmm": [client.run(spmm).plan.key for _ in range(3)],
                "sddmm": [client.run(sddmm).plan.key for _ in range(2)],
            }
            rows = attribute(client.tracer.finished())
            backend = client.backend

        launches = {
            r["plan_key"]: r for r in rows if r["phase"] == "kernel-launch"
        }
        assert len(launches) == 2
        for op, count in (("spmm", 3), ("sddmm", 2)):
            (key,) = set(plan_keys[op])
            row = launches[key]
            assert row["backend"] == backend
            assert row["count"] == count
            assert row["self_s"] > 0
        (queue,) = [r for r in rows if r["phase"] == "queue"]
        assert queue["count"] == 5

    def test_self_time_adds_up_to_request_wall(self):
        """Self time partitions each span tree: summed over every row it
        equals the summed wall of the root spans."""
        spmm, sddmm = _requests()
        with repro.open_engine(trace=True, metrics=MetricsRegistry()) as client:
            for request in (spmm, sddmm, spmm):
                client.run(request)
            traces = client.tracer.finished()
        rows = attribute(traces)
        root_wall = sum(
            span["wall_s"]
            for t in traces for span in t.to_dict()["spans"]
            if span["parent_id"] is None
        )
        assert len(traces) == 3
        assert sum(r["self_s"] for r in rows) == pytest.approx(root_wall)

    def test_untraced_engine_attributes_nothing(self):
        spmm, _ = _requests()
        with repro.open_engine(metrics=MetricsRegistry()) as client:
            client.run(spmm)
            assert client.tracer.finished() == []
            assert attribute(client.tracer.finished()) == []


class TestOneTimerPerPhase:
    """The span tracer and the metrics registry are the only timers."""

    def test_open_engine_takes_no_profile_argument(self):
        with pytest.raises(TypeError):
            repro.open_engine(profile=True)

    def test_profile_module_exports_only_attribute(self):
        import repro.obs
        import repro.obs.profile

        assert repro.obs.profile.__all__ == ["attribute"]
        for name in ("Profiler", "ProfileConfig", "ProfileReport",
                     "NULL_PROFILER", "render_folded", "render_speedscope"):
            assert not hasattr(repro.obs, name)
            assert not hasattr(repro.obs.profile, name)

    def test_served_request_metrics_still_time_every_launch(self):
        """With no profiler, the kernel-wall histogram is what counts
        backend executions: one observation per launch."""
        from repro.obs import names

        spmm, sddmm = _requests()
        registry = MetricsRegistry()
        with repro.open_engine(metrics=registry) as client:
            for request in (spmm, spmm, sddmm):
                client.run(request)
        counts = {
            sample["labels"]["op"]: sample["count"]
            for sample in registry.to_dict()[names.KERNEL_WALL]["samples"]
        }
        assert counts["spmm"] == 2
        assert counts["sddmm"] >= 1
