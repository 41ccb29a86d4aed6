"""Continuous profiling: attribution, sampling, exports, overhead."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import repro
from repro import api
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    NULL_PROFILER,
    PROFILE_SCHEMA,
    TRUNCATED_STACK,
    ProfileConfig,
    ProfileReport,
    Profiler,
    attribute,
    render_folded,
    render_speedscope,
)
from repro.obs.trace import Tracer


class TestProfileConfig:
    def test_defaults_are_valid(self):
        config = ProfileConfig()
        assert config.sample_rate == 1.0 and not config.memory

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 0.0},
        {"sample_rate": -0.5},
        {"sample_rate": 1.5},
        {"max_stacks": 0},
    ])
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            ProfileConfig(**kwargs)


class TestProfiler:
    def test_samples_record_phase_wall_and_stack(self):
        profiler = Profiler()
        with profiler.sample("phase-a"):
            time.sleep(0.002)
        report = profiler.report()
        assert report.sampled == 1 and report.skipped == 0
        (stat,) = report.stats
        assert stat.phase == "phase-a" and stat.count == 1
        assert stat.wall_s >= 0.002
        # collapsed stacks are root-first module:function frames ending
        # at the caller of sample()
        assert ";" in stat.stack
        assert stat.stack.endswith(
            ":test_samples_record_phase_wall_and_stack"
        )

    def test_sampling_rate_thins_deterministically(self):
        def drive(seed):
            profiler = Profiler(ProfileConfig(sample_rate=0.25, seed=seed))
            for _ in range(200):
                with profiler.sample("p"):
                    pass
            return profiler.report()

        a, b = drive(7), drive(7)
        assert a.sampled == b.sampled and a.skipped == b.skipped
        assert a.sampled + a.skipped == 200
        assert 0 < a.sampled < 200  # actually thinned, not all-or-nothing

    def test_max_stacks_folds_novel_stacks_into_truncated(self):
        profiler = Profiler(ProfileConfig(max_stacks=2))

        def from_a():
            with profiler.sample("p"):
                pass

        def from_b():
            with profiler.sample("p"):
                pass

        def from_c():
            with profiler.sample("p"):
                pass

        from_a(), from_b(), from_c(), from_c()
        report = profiler.report()
        stacks = {s.stack: s.count for s in report.stats}
        # bounded: max_stacks real stacks plus the fold bucket, however
        # many further novel stacks arrive
        assert len(stacks) == 3
        assert stacks[TRUNCATED_STACK] == 2  # both from_c() calls folded
        assert report.sampled == 4  # nothing dropped, only folded

    def test_memory_capture_records_tracemalloc_peak(self):
        profiler = Profiler(ProfileConfig(memory=True))
        with profiler.sample("alloc"):
            blob = bytearray(256 * 1024)
        del blob
        (stat,) = profiler.report().stats
        assert stat.peak_bytes >= 256 * 1024

    def test_report_round_trips_through_dict(self):
        profiler = Profiler()
        with profiler.sample("p"):
            pass
        report = profiler.report()
        doc = report.to_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        restored = ProfileReport.from_dict(doc)
        assert restored.to_dict() == doc

    def test_wrong_schema_raises(self):
        with pytest.raises(ConfigError):
            ProfileReport.from_dict({"schema": 99})

    def test_phase_totals_roll_up(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.sample("a"):
                pass
        with profiler.sample("b"):
            pass
        totals = profiler.report().phase_totals()
        assert totals["a"]["count"] == 3 and totals["b"]["count"] == 1


class TestNullProfiler:
    def test_falsy_and_inert(self):
        assert not NULL_PROFILER
        sample = NULL_PROFILER.sample("anything")
        assert not sample
        with sample:
            pass
        report = NULL_PROFILER.report()
        assert report.sampled == 0 and report.stats == []


class TestExports:
    def _report(self):
        profiler = Profiler()
        with profiler.sample("phase-a"):
            time.sleep(0.001)
        with profiler.sample("phase-b"):
            pass
        return profiler.report()

    def test_folded_lines_are_weighted_stacks(self):
        report = self._report()
        lines = render_folded(report).splitlines()
        assert len(lines) == 2
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert ";" in stack and int(weight) >= 0
        assert any(ln.startswith("phase-a;") for ln in lines)

    def test_folded_weight_modes(self):
        report = self._report()
        samples = render_folded(report, weight="samples").splitlines()
        assert all(ln.rpartition(" ")[2] == "1" for ln in samples)
        with pytest.raises(ConfigError):
            render_folded(report, weight="nonsense")

    def test_speedscope_document_shape(self):
        report = self._report()
        doc = json.loads(render_speedscope(report, name="t"))
        assert doc["$schema"].startswith("https://www.speedscope.app")
        assert {p["name"] for p in doc["profiles"]} == {"phase-a", "phase-b"}
        frames = doc["shared"]["frames"]
        for profile in doc["profiles"]:
            assert profile["type"] == "sampled"
            assert len(profile["samples"]) == len(profile["weights"])
            for stack in profile["samples"]:
                assert all(0 <= i < len(frames) for i in stack)
            assert profile["endValue"] == sum(profile["weights"])

    def test_save_writes_speedscope_json(self, tmp_path):
        path = self._report().save(tmp_path / "p.json")
        assert json.loads(path.read_text())["exporter"] == "repro.obs.profile"


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


@pytest.fixture
def lhs():
    return repro.SparseMatrix.from_dense(
        np.eye(64, dtype=np.int8), vector_length=8
    )


def _rhs():
    return np.ones((64, 8), dtype=np.int8)


class TestEngineIntegration:
    def test_profiled_engine_captures_both_phases(self, lhs):
        with repro.open_engine(
            metrics=MetricsRegistry(), profile=ProfileConfig()
        ) as client:
            for _ in range(4):
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            report = client.profiler.report()
        assert set(report.phases) == {"batcher-dispatch", "backend-execute"}
        totals = report.phase_totals()
        assert totals["batcher-dispatch"]["count"] >= 1
        assert totals["backend-execute"]["count"] >= 1
        assert all(t["wall_s"] > 0 for t in totals.values())

    def test_prebuilt_profiler_passes_through(self, lhs):
        profiler = Profiler(ProfileConfig(sample_rate=0.5, seed=1))
        with repro.open_engine(
            metrics=MetricsRegistry(), profile=profiler
        ) as client:
            assert client.profiler is profiler
            client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))

    def test_unprofiled_engine_holds_the_null_profiler(self, lhs):
        with repro.open_engine(metrics=MetricsRegistry()) as client:
            assert client.profiler is NULL_PROFILER
            client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs()))
            assert client.profiler.report().sampled == 0


class TestDisabledOverhead:
    def test_disabled_profiler_costs_under_five_percent_of_a_request(self, lhs):
        """The null-profiler path must be invisible next to a request.

        Mirrors the disabled-tracer guard: measure the whole disabled
        per-dispatch work (one sample() call, one no-op context
        manager) and pin it below 5% of the measured mean request wall
        on a serve microload.
        """
        registry = MetricsRegistry()
        with repro.open_engine(metrics=registry) as client:
            assert client.profiler is NULL_PROFILER
            for _ in range(8):
                client.run(api.SpmmRequest(lhs=lhs, rhs=_rhs(), session="s"))
        from repro.obs import names

        from repro.obs.metrics import merge_histograms, select

        mean_request_s = merge_histograms(
            select(registry.to_dict(), names.REQUEST_WALL)
        ).mean
        assert mean_request_s > 0

        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            with NULL_PROFILER.sample("batcher-dispatch"):
                pass
            with NULL_PROFILER.sample("backend-execute"):
                pass
        per_request_s = (time.perf_counter() - t0) / n
        assert per_request_s < 0.05 * mean_request_s, (
            f"disabled-path cost {per_request_s * 1e6:.2f}us is not <5% of "
            f"the {mean_request_s * 1e3:.2f}ms mean request"
        )
