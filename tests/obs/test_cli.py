"""``repro obs`` CLI: summary/export/tail/profile/health over artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import names
from repro.obs.cli import main
from repro.obs.export import load_json, parse_prometheus, write_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import STANDARD_METRICS, declare_standard
from repro.obs.trace import Tracer


@pytest.fixture
def snapshot(tmp_path):
    r = declare_standard(MetricsRegistry())
    r.counter(names.REQUESTS, {"session": "s"}).inc(3)
    r.histogram(names.REQUEST_WALL).observe(0.01)
    return write_snapshot(r, tmp_path / "metrics.json")


@pytest.fixture
def trace_log(tmp_path):
    tracer = Tracer()
    t = tracer.request(op="spmm", session="s", request_id=1)
    with t.span("admission", queue_depth=0):
        pass
    t.add_span("kernel-launch", 0.0, 0.001, batch_id=1)
    tracer.finish(t)
    return tracer.export_jsonl(tmp_path / "trace.jsonl")


class TestSummary:
    def test_renders_tables_from_snapshot(self, snapshot, capsys):
        assert main(["summary", "--metrics", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert names.REQUESTS in out and "session=s" in out

    def test_missing_snapshot_falls_back_to_contract(self, tmp_path, capsys):
        assert main(["summary", "--metrics", str(tmp_path / "nope.json")]) == 0
        assert "standard contract" in capsys.readouterr().out

    def test_bench_report_is_a_clean_error(self, capsys):
        """``BENCH_serve.json`` carries ``"schema": 1`` but is a report,
        not its metrics export: a one-line typed error, no traceback."""
        report = Path(__file__).resolve().parents[2] / "BENCH_serve.json"
        assert main(["summary", "--metrics", str(report)]) != 0
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err and captured.out == ""


class TestExport:
    def test_prometheus_names_full_contract_even_without_snapshot(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nope.json")
        assert main(["export", "--metrics", missing, "--format", "prometheus"]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert set(families) == {m[0] for m in STANDARD_METRICS}

    def test_prometheus_round_trip_from_snapshot(self, snapshot, capsys):
        assert main([
            "export", "--metrics", str(snapshot), "--format", "prometheus",
        ]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        sample, = (
            s for s in families[names.REQUESTS]["samples"]
            if s["labels"] == {"session": "s"}
        )
        assert sample["value"] == 3

    def test_json_export_to_file(self, snapshot, tmp_path):
        out = tmp_path / "again.json"
        assert main([
            "export", "--metrics", str(snapshot), "--format", "json",
            "--out", str(out),
        ]) == 0
        restored = load_json(out.read_text())
        assert restored.counter(names.REQUESTS, {"session": "s"}).value == 3


class TestTail:
    def test_renders_span_tree(self, trace_log, capsys):
        assert main(["tail", "--trace", str(trace_log), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "request 1 [spmm@s]" in out
        assert "admission" in out and "queue_depth=0" in out
        assert "kernel-launch" in out

    def test_missing_trace_log_fails_with_hint(self, tmp_path, capsys):
        assert main(["tail", "--trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "serve --replay" in capsys.readouterr().err


@pytest.fixture
def mixed_trace_log(tmp_path):
    """Four traces over two sessions and two plan keys."""
    tracer = Tracer(enabled=True)
    for i in range(4):
        t = tracer.request(op="spmm", session=f"s{i % 2}", request_id=i + 1)
        t.add_span(
            "kernel-launch", 0.0, 0.001,
            backend="numpy", plan_key=f"k{i % 2}",
        )
        tracer.finish(t)
    return tracer.export_jsonl(tmp_path / "trace.jsonl")


class TestTailFilters:
    def _headers(self, out):
        return [ln for ln in out.splitlines() if ln.startswith("request ")]

    def test_session_filter(self, mixed_trace_log, capsys):
        assert main([
            "tail", "--trace", str(mixed_trace_log), "--session", "s1",
        ]) == 0
        out = capsys.readouterr().out
        assert len(self._headers(out)) == 2 and "@s0" not in out

    def test_plan_key_filter_matches_span_attrs(self, mixed_trace_log, capsys):
        assert main([
            "tail", "--trace", str(mixed_trace_log), "--plan-key", "k0",
        ]) == 0
        out = capsys.readouterr().out
        assert "@s0" in out and "@s1" not in out

    def test_no_matches_says_so(self, mixed_trace_log, capsys):
        assert main([
            "tail", "--trace", str(mixed_trace_log), "--session", "nope",
        ]) == 0
        assert "(no matching traces)" in capsys.readouterr().out

    def test_filters_compose_with_n(self, mixed_trace_log, capsys):
        assert main([
            "tail", "--trace", str(mixed_trace_log), "--session", "s0",
            "-n", "1",
        ]) == 0
        headers = self._headers(capsys.readouterr().out)
        assert headers == ["request 3 [spmm@s0]"]  # the most recent match


class TestTailFollow:
    def test_follow_prints_appended_traces(self, tmp_path, capsys):
        import threading

        log = tmp_path / "t.jsonl"
        log.write_text(json.dumps(_trace_doc()) + "\n")

        def append_later():
            doc = {**_trace_doc(), "request_id": 8}
            with log.open("a") as f:
                f.write(json.dumps(doc) + "\n")

        timer = threading.Timer(0.05, append_later)
        timer.start()
        try:
            assert main([
                "tail", "--trace", str(log), "--follow",
                "--interval", "0.02", "--max-polls", "20",
            ]) == 0
        finally:
            timer.cancel()
        out = capsys.readouterr().out
        assert "request 7" in out and "request 8" in out

    def test_follow_survives_a_missing_then_created_file(self, tmp_path, capsys):
        log = tmp_path / "later.jsonl"
        assert main([
            "tail", "--trace", str(log), "--follow",
            "--interval", "0.01", "--max-polls", "2",
        ]) == 0  # no error: the file may not exist yet
        log.write_text(json.dumps(_trace_doc()) + "\n")
        assert main([
            "tail", "--trace", str(log), "--follow",
            "--interval", "0.01", "--max-polls", "2",
        ]) == 0
        assert "request 7" in capsys.readouterr().out

    def test_follow_resets_on_truncation(self, tmp_path, capsys):
        # the tracer rewrites its ring file atomically; a shrink means
        # a rotation and the follower must start over, not explode
        log = tmp_path / "t.jsonl"
        lines = [json.dumps({**_trace_doc(), "request_id": i}) for i in (1, 2)]
        log.write_text("\n".join(lines) + "\n")
        assert main([
            "tail", "--trace", str(log), "--follow",
            "--interval", "0.01", "--max-polls", "1",
        ]) == 0
        log.write_text(json.dumps({**_trace_doc(), "request_id": 9}) + "\n")
        assert main([
            "tail", "--trace", str(log), "--follow",
            "--interval", "0.01", "--max-polls", "1",
        ]) == 0
        assert "request 9" in capsys.readouterr().out


class TestProfileCommand:
    def test_renders_self_time_table(self, mixed_trace_log, capsys):
        assert main(["profile", "--trace", str(mixed_trace_log)]) == 0
        out = capsys.readouterr().out
        assert "self ms" in out and "kernel-launch" in out
        assert "k0" in out and "k1" in out

    def test_top_caps_rows_and_says_so(self, mixed_trace_log, capsys):
        assert main([
            "profile", "--trace", str(mixed_trace_log), "--top", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "more row(s)" in out

    def test_json_output_is_machine_readable(self, mixed_trace_log, capsys):
        assert main([
            "profile", "--trace", str(mixed_trace_log), "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and {"phase", "self_s", "count"} <= set(rows[0])

    def test_missing_trace_fails_with_hint(self, tmp_path, capsys):
        assert main(["profile", "--trace", str(tmp_path / "no.jsonl")]) == 1
        assert "serve --replay" in capsys.readouterr().err


class TestHealthCommand:
    def _breaching_snapshot(self, tmp_path):
        r = declare_standard(MetricsRegistry())
        for _ in range(20):
            r.histogram(names.REQUEST_WALL).observe(2.0)  # way over 250ms
        return write_snapshot(r, tmp_path / "bad.json")

    def test_missing_snapshot_probes_healthy(self, tmp_path, capsys):
        # the cli-smoke CI job runs exactly this before any artifact
        # exists: the empty standard contract must grade healthy
        assert main([
            "health", "--metrics", str(tmp_path / "no.json"), "--probe",
        ]) == 0
        out = capsys.readouterr().out
        assert "overall: healthy" in out and "standard contract" in out

    def test_probe_exit_code_reflects_breach(self, tmp_path, capsys):
        snapshot = self._breaching_snapshot(tmp_path)
        assert main(["health", "--metrics", str(snapshot), "--probe"]) == 2
        out = capsys.readouterr().out
        assert "overall: breach" in out and "wall-p95" in out

    def test_without_probe_always_exits_zero(self, tmp_path):
        snapshot = self._breaching_snapshot(tmp_path)
        assert main(["health", "--metrics", str(snapshot)]) == 0

    def test_out_writes_the_report_json(self, snapshot, tmp_path):
        out = tmp_path / "health.json"
        assert main([
            "health", "--metrics", str(snapshot), "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] in ("healthy", "degraded", "breach")
        assert len(doc["objectives"]) == 4

    def test_custom_slos_from_file(self, snapshot, tmp_path, capsys):
        specs = tmp_path / "slos.json"
        specs.write_text(json.dumps([
            {"name": "custom-lat", "kind": "latency", "objective": 0.5},
        ]))
        assert main([
            "health", "--metrics", str(snapshot), "--slos", str(specs),
        ]) == 0
        out = capsys.readouterr().out
        assert "custom-lat" in out and "wall-p95" not in out


class TestEntryPoints:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "summary" in capsys.readouterr().out

    def test_registered_with_the_repro_umbrella(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["--help"]) == 0
        assert "obs" in capsys.readouterr().out

    def test_runnable_as_module(self, snapshot):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "export", "--metrics",
             str(snapshot), "--format", "prometheus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert names.REQUESTS in proc.stdout


def _trace_doc() -> dict:
    return {
        "request_id": 7, "op": "spmm", "session": "s",
        "spans": [
            {"span_id": 1, "parent_id": None, "name": "outer",
             "start_s": 0.0, "end_s": 0.002, "wall_s": 0.002, "attrs": {}},
            {"span_id": 2, "parent_id": 1, "name": "inner",
             "start_s": 0.0, "end_s": 0.001, "wall_s": 0.001,
             "attrs": {"k": "v"}},
        ],
    }


def test_tail_indents_children_under_parents(tmp_path, capsys):
    log = tmp_path / "t.jsonl"
    log.write_text(json.dumps(_trace_doc()) + "\n")
    assert main(["tail", "--trace", str(log)]) == 0
    lines = capsys.readouterr().out.splitlines()
    outer = next(ln for ln in lines if "outer" in ln)
    inner = next(ln for ln in lines if "inner" in ln)
    assert len(inner) - len(inner.lstrip()) > len(outer) - len(outer.lstrip())
    assert "k=v" in inner
