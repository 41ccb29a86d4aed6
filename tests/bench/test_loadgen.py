"""Traffic replay: arrival schedules, BENCH_serve.json, the compare gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.loadgen import (
    BENCH_SCHEMA,
    ReplayConfig,
    arrival_offsets,
    compare_main,
    compare_reports,
    render_replay_report,
    run_replay,
)
from repro.errors import ConfigError
from repro.runtime import DEFAULT_BACKEND


class TestArrivalSchedules:
    def test_uniform_ticks_at_the_rate(self):
        offsets = arrival_offsets(
            ReplayConfig(requests=5, arrival="uniform", rate_rps=100.0)
        )
        assert offsets == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])

    def test_poisson_is_seeded_and_monotonic(self):
        cfg = ReplayConfig(requests=50, arrival="poisson", seed=7)
        a, b = arrival_offsets(cfg), arrival_offsets(cfg)
        assert a == b
        assert a[0] == 0.0
        assert all(x <= y for x, y in zip(a, a[1:]))
        assert a != arrival_offsets(
            ReplayConfig(requests=50, arrival="poisson", seed=8)
        )

    def test_poisson_hits_the_average_rate(self):
        cfg = ReplayConfig(requests=2000, arrival="poisson", rate_rps=100.0)
        offsets = arrival_offsets(cfg)
        assert offsets[-1] == pytest.approx(2000 / 100.0, rel=0.2)

    def test_bursty_arrivals_come_in_groups(self):
        cfg = ReplayConfig(requests=32, arrival="bursty", burst_size=8)
        offsets = arrival_offsets(cfg)
        assert len(offsets) == 32
        assert len(set(offsets)) == 4  # 4 bursts of 8 identical offsets

    def test_trace_driven_arrivals(self, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([10.0, 10.1, 10.3]))
        offsets = arrival_offsets(ReplayConfig(
            requests=3, arrival="trace", trace_path=trace
        ))
        assert offsets == pytest.approx([0.0, 0.1, 0.3])  # re-based to 0

    def test_trace_cycles_to_fill_the_request_count(self, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([0.0, 0.1]))
        offsets = arrival_offsets(ReplayConfig(
            requests=5, arrival="trace", trace_path=trace
        ))
        assert len(offsets) == 5
        assert all(x <= y for x, y in zip(offsets, offsets[1:]))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            ReplayConfig(requests=0)
        with pytest.raises(ConfigError):
            ReplayConfig(arrival="chaotic")
        with pytest.raises(ConfigError):
            ReplayConfig(arrival="trace")  # no trace_path
        with pytest.raises(ConfigError):
            ReplayConfig(mix=())
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ConfigError):
            arrival_offsets(ReplayConfig(arrival="trace", trace_path=bad))


@pytest.fixture(scope="module")
def replay_artifacts(tmp_path_factory):
    """One small end-to-end replay shared by the artifact tests."""
    tmp = tmp_path_factory.mktemp("replay")
    config = ReplayConfig(requests=24, arrival="uniform", rate_rps=2000.0, seed=3)
    report = run_replay(config, out=tmp / "BENCH_serve.json")
    return tmp, report


class TestRunReplay:
    def test_report_schema_and_shape(self, replay_artifacts):
        _, report = replay_artifacts
        assert report["schema"] == BENCH_SCHEMA
        assert report["bench"] == "serve-replay"
        r = report["results"]
        assert r["requests"]["completed"] == 24
        assert r["requests"]["completed"] + r["requests"]["rejected"] == 24
        for series in ("wall", "modelled", "queue_wait"):
            stats = r["latency_s"][series]
            assert stats["count"] == 24
            assert 0.0 <= stats["p50"] <= stats["p95"] <= stats["p99"]
        assert r["throughput"]["completed_rps"] > 0
        assert r["throughput"]["saturation_rps"] > 0
        assert 0.0 <= r["plan_cache"]["hit_rate"] <= 1.0
        assert r["batching"]["batches"] >= 1

    def test_report_records_the_backend(self, replay_artifacts):
        _, report = replay_artifacts
        assert report["config"]["backend"] == DEFAULT_BACKEND

    def test_bench_cli_backend_flag(self, tmp_path, monkeypatch):
        from repro.bench.cli import main as bench_main

        monkeypatch.chdir(tmp_path)
        assert bench_main([
            "serve", "--replay", "--requests", "6", "--arrival", "uniform",
            "--rate", "2000", "--mix", "spmm=1", "--backend",
            "magicube-emulation", "--out", "b.json",
        ]) == 0
        report = json.loads((tmp_path / "b.json").read_text())
        assert report["config"]["backend"] == "magicube-emulation"

    def test_cli_side_artifacts_follow_out(self, tmp_path, monkeypatch):
        """``--out <dir>/r.json`` puts all six artifacts under ``<dir>``
        and none in the working directory."""
        from repro.bench.cli import main as bench_main

        cwd, target = tmp_path / "cwd", tmp_path / "target"
        cwd.mkdir()
        target.mkdir()
        monkeypatch.chdir(cwd)
        assert bench_main([
            "serve", "--replay", "--requests", "6", "--arrival", "uniform",
            "--rate", "2000", "--mix", "spmm=1", "--out", str(target / "r.json"),
        ]) == 0
        assert sorted(p.name for p in target.iterdir()) == [
            "r.folded.txt", "r.health.json", "r.json", "r.metrics.json",
            "r.profile.json", "r.trace.jsonl",
        ]
        assert list(cwd.iterdir()) == []

    def test_artifacts_written_and_loadable(self, replay_artifacts):
        tmp, report = replay_artifacts
        on_disk = json.loads((tmp / "BENCH_serve.json").read_text())
        assert on_disk == report

        from repro.obs import names
        from repro.obs.export import load_json

        registry = load_json((tmp / "BENCH_serve.metrics.json").read_text())
        totals = sum(
            c.value for _, c in registry.samples(names.REQUESTS)
        )
        assert totals == 24

        lines = (tmp / "BENCH_serve.trace.jsonl").read_text().splitlines()
        assert len(lines) == 24
        first = json.loads(lines[0])
        assert {s["name"] for s in first["spans"]} >= {
            "admission", "plan-resolution", "queue", "kernel-launch",
        }

    def test_render_is_human_readable(self, replay_artifacts):
        _, report = replay_artifacts
        text = render_replay_report(report)
        assert "traffic replay" in text
        assert "p99" in text and "rejected by admission" in text
        assert "health:" in text and "profile:" in text

    def test_render_tolerates_pre_health_artifacts(self, replay_artifacts):
        # artifacts recorded before the health/profile sections existed
        # must still render (the compare gate reads old baselines)
        _, report = replay_artifacts
        old = json.loads(json.dumps(report))
        del old["results"]["health"]
        del old["results"]["profile"]
        text = render_replay_report(old)
        assert "traffic replay" in text and "health:" not in text

    def test_health_report_grades_the_default_slos(self, replay_artifacts):
        tmp, report = replay_artifacts
        from repro.obs.health import DEFAULT_SLOS, HEALTH_SCHEMA

        doc = json.loads((tmp / "BENCH_serve.health.json").read_text())
        assert doc["schema"] == HEALTH_SCHEMA
        assert len(doc["objectives"]) == len(DEFAULT_SLOS) >= 1
        assert doc["status"] in ("healthy", "degraded", "breach")
        assert report["results"]["health"]["status"] == doc["status"]
        evaluated = {o["spec"]["name"] for o in doc["objectives"]}
        assert evaluated == {s.name for s in DEFAULT_SLOS}

    def test_profile_artifacts_cover_both_phases(self, replay_artifacts):
        tmp, report = replay_artifacts
        speedscope = json.loads((tmp / "BENCH_serve.profile.json").read_text())
        assert speedscope["$schema"].startswith("https://www.speedscope.app")
        phases = {p["name"] for p in speedscope["profiles"]}
        assert phases == {"batcher-dispatch", "backend-execute"}
        folded = (tmp / "BENCH_serve.folded.txt").read_text().splitlines()
        assert folded and all(" " in ln for ln in folded)
        assert any(ln.startswith("backend-execute;") for ln in folded)
        assert report["results"]["profile"]["sampled"] > 0

    def test_mixed_classes_all_serve(self, replay_artifacts):
        tmp, _ = replay_artifacts
        from repro.obs.export import load_json

        registry = load_json((tmp / "BENCH_serve.metrics.json").read_text())
        sessions = {
            labels["session"]
            for labels, _ in registry.samples("repro_requests_total")
        }
        # seeded mix over 24 requests draws every class
        assert sessions == {"replay-spmm", "replay-sddmm", "replay-attn"}

    def test_bursty_replay_coalesces_under_the_default_policy(self):
        """The batcher holds no request back from an idle worker, yet a
        burst still finds every worker busy and piles up into shared
        launches."""
        report = run_replay(
            ReplayConfig(requests=48, arrival="bursty", seed=0), out=None
        )
        r = report["results"]
        assert r["requests"]["completed"] == 48
        assert r["batching"]["mean_batch_size"] > 1


class TestGatewayReplay:
    def test_rollups_come_from_the_merged_snapshot(self, replay_artifacts):
        """Routed through a one-worker fleet, the replay writes the same
        report shape, its rollups read off the merged metrics."""
        _, direct = replay_artifacts
        config = ReplayConfig(
            requests=12, arrival="uniform", rate_rps=400.0, seed=3,
            gateway_workers=1,
        )
        report = run_replay(config, out=None)
        r = report["results"]
        assert set(r) == (set(direct["results"]) - {"profile"}) | {"gateway"}
        for section in ("requests", "latency_s", "throughput", "batching",
                        "plan_cache"):
            assert set(r[section]) == set(direct["results"][section])
        assert r["requests"]["completed"] == 12
        # every request ran in a batch, so the rollups must cover it all
        batching = r["batching"]
        assert batching["batches"] >= 1
        assert batching["batches"] * batching["mean_batch_size"] == pytest.approx(
            r["latency_s"]["modelled"]["count"]
        )
        assert r["throughput"]["saturation_rps"] > 0
        assert r["plan_cache"]["hits"] + r["plan_cache"]["misses"] > 0
        assert r["gateway"]["workers"] == 1


def _report(**overrides) -> dict:
    base = {
        "schema": BENCH_SCHEMA,
        "bench": "serve-replay",
        "config": {},
        "results": {
            "requests": {"submitted": 10, "completed": 10, "rejected": 0},
            "latency_s": {
                "wall": {"count": 10, "mean": 1e-3, "p50": 1e-3,
                         "p95": 2e-3, "p99": 3e-3},
                "modelled": {"count": 10, "mean": 1e-6, "p50": 1e-6,
                             "p95": 2e-6, "p99": 3e-6},
                "queue_wait": {"count": 10, "mean": 1e-4, "p50": 1e-4,
                               "p95": 2e-4, "p99": 3e-4},
            },
            "throughput": {"offered_rps": 100.0, "completed_rps": 90.0,
                           "saturation_rps": 1000.0},
            "batching": {"batches": 5, "mean_batch_size": 2.0},
            "plan_cache": {"hits": 9, "misses": 1, "hit_rate": 0.9},
            "duration_s": 0.1,
        },
    }
    for path, value in overrides.items():
        d = base["results"]
        parts = path.split(".")
        for p in parts[:-1]:
            d = d[p]
        d[parts[-1]] = value
    return base


class TestCompare:
    def test_identical_reports_are_clean(self):
        assert compare_reports(_report(), _report()) == []

    def test_latency_regression_detected(self):
        worse = _report(**{"latency_s.wall.p99": 3e-3 * 2})
        lines = compare_reports(worse, _report())
        assert len(lines) == 1 and "latency_s.wall.p99" in lines[0]

    def test_throughput_regression_detected(self):
        worse = _report(**{"throughput.completed_rps": 30.0})
        lines = compare_reports(worse, _report())
        assert lines and "completed_rps" in lines[0] and "fell" in lines[0]

    def test_improvements_and_jitter_pass(self):
        better = _report(**{
            "latency_s.wall.p99": 1e-3,
            "throughput.completed_rps": 200.0,
        })
        assert compare_reports(better, _report()) == []
        jitter = _report(**{"latency_s.wall.p99": 3e-3 * 1.1})
        assert compare_reports(jitter, _report(), threshold=0.25) == []

    def test_schema_mismatch_raises(self):
        bad = _report()
        bad["schema"] = 99
        with pytest.raises(ConfigError):
            compare_reports(bad, _report())

    def test_missing_gate_metric_skipped_not_fatal(self):
        old = _report()
        del old["results"]["plan_cache"]
        assert compare_reports(_report(), old) == []


class TestCompareMain:
    def _write(self, tmp_path, name, report):
        p = tmp_path / name
        p.write_text(json.dumps(report))
        return str(p)

    def test_no_baseline_is_a_clean_pass(self, tmp_path, capsys):
        cur = self._write(tmp_path, "cur.json", _report())
        missing = str(tmp_path / "nope.json")
        assert compare_main([cur, missing]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_warn_only_by_default(self, tmp_path, capsys):
        worse = copy.deepcopy(_report())
        worse["results"]["latency_s"]["wall"]["p99"] *= 10
        cur = self._write(tmp_path, "cur.json", worse)
        base = self._write(tmp_path, "base.json", _report())
        assert compare_main([cur, base]) == 0
        out = capsys.readouterr().out
        assert "regression" in out and "warn-only" in out

    def test_strict_fails_on_regression(self, tmp_path):
        worse = copy.deepcopy(_report())
        worse["results"]["latency_s"]["wall"]["p99"] *= 10
        cur = self._write(tmp_path, "cur.json", worse)
        base = self._write(tmp_path, "base.json", _report())
        assert compare_main([cur, base, "--strict"]) == 1
        assert compare_main([cur, base, "--strict", "--threshold", "100"]) == 0

    def test_missing_current_errors(self, tmp_path):
        base = self._write(tmp_path, "base.json", _report())
        assert compare_main([str(tmp_path / "nope.json"), base]) == 2

    def test_routed_through_the_bench_cli(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        cur = self._write(tmp_path, "cur.json", _report())
        assert bench_main(["compare", cur, str(tmp_path / "nope.json")]) == 0
        assert "nothing to compare" in capsys.readouterr().out
