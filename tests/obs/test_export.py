"""Exporters: JSON snapshot round-trip, Prometheus render + parse."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigError
from repro.obs import names
from repro.obs.export import (
    EXPORT_SCHEMA,
    load_json,
    parse_prometheus,
    render_json,
    render_prometheus,
    summarize,
    write_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import STANDARD_METRICS, declare_standard


def _populated() -> MetricsRegistry:
    r = declare_standard(MetricsRegistry())
    r.counter(names.REQUESTS, {"session": "ffn"}).inc(12)
    r.gauge(names.QUEUE_DEPTH, {"session": "ffn"}).set(2)
    h = r.histogram(names.REQUEST_WALL)
    for v in (0.001, 0.004, 0.2):
        h.observe(v)
    r.histogram(names.BATCH_SIZE).observe(4)
    return r


class TestJsonSnapshot:
    def test_round_trip_is_lossless(self):
        r = _populated()
        restored = load_json(render_json(r))
        assert restored.to_dict() == r.to_dict()

    def test_schema_versioned(self):
        doc = json.loads(render_json(MetricsRegistry()))
        assert doc["schema"] == EXPORT_SCHEMA

    def test_wrong_schema_raises(self):
        with pytest.raises(ConfigError):
            load_json(json.dumps({"schema": 99, "metrics": {}}))

    @pytest.mark.parametrize("text", [
        json.dumps({"schema": EXPORT_SCHEMA, "results": {}}),  # a BENCH report
        json.dumps({"schema": EXPORT_SCHEMA, "metrics": [1, 2]}),
        json.dumps([EXPORT_SCHEMA]),
        "not json",
    ])
    def test_non_metrics_document_raises(self, text):
        with pytest.raises(ConfigError):
            load_json(text)

    def test_write_snapshot_atomic_and_readable(self, tmp_path):
        path = write_snapshot(_populated(), tmp_path / "m.json")
        assert load_json(path.read_text()).names() == _populated().names()

    def test_render_deterministic(self):
        assert render_json(_populated()) == render_json(_populated())


class TestPrometheus:
    def test_every_standard_metric_named_even_when_idle(self):
        text = render_prometheus(declare_standard(MetricsRegistry()))
        families = parse_prometheus(text)
        assert set(families) == {m[0] for m in STANDARD_METRICS}
        for name, kind, _, _ in STANDARD_METRICS:
            assert families[name]["kind"] == kind
            assert families[name]["help"]

    def test_histogram_expands_to_cumulative_buckets(self):
        r = MetricsRegistry()
        h = r.histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        families = parse_prometheus(render_prometheus(r))
        series = {
            (s["series"], s["labels"].get("le")): s["value"]
            for s in families["h"]["samples"]
        }
        assert series[("h_bucket", "1")] == 1
        assert series[("h_bucket", "2")] == 2
        assert series[("h_bucket", "+Inf")] == 3  # cumulative
        assert series[("h_count", None)] == 3
        assert series[("h_sum", None)] == pytest.approx(101.0)

    def test_labels_render_sorted_and_parse_back(self):
        r = MetricsRegistry()
        r.counter("c_total", {"b": "y", "a": "x"}).inc(2)
        text = render_prometheus(r)
        assert 'c_total{a="x",b="y"} 2' in text
        sample, = parse_prometheus(text)["c_total"]["samples"]
        assert sample["labels"] == {"a": "x", "b": "y"}

    def test_parser_is_strict(self):
        with pytest.raises(ConfigError):
            parse_prometheus("what even is this line")
        with pytest.raises(ConfigError):
            parse_prometheus("orphan_metric 3")  # no TYPE/HELP declared
        with pytest.raises(ConfigError):
            parse_prometheus("# TYPE x summary\nx 1")

    @pytest.mark.parametrize("value", [
        'quote:"double"',
        "back\\slash",
        "new\nline",
        'all\\of\n"them",together',
        "plan|spmm|512x512x64,v=8",
    ])
    def test_label_values_escape_and_round_trip(self, value):
        r = MetricsRegistry()
        r.counter("c_total", {"plan_key": value}).inc(1)
        text = render_prometheus(r)
        # the exposition stays one sample per line whatever the value
        assert sum(not ln.startswith("#") for ln in text.splitlines()) == 1
        sample, = parse_prometheus(text)["c_total"]["samples"]
        assert sample["labels"] == {"plan_key": value}

    def test_escaped_rendering_matches_prometheus_conventions(self):
        r = MetricsRegistry()
        r.counter("c_total", {"k": 'a\\b"c\nd'}).inc(1)
        assert 'c_total{k="a\\\\b\\"c\\nd"} 1' in render_prometheus(r)

    def test_unterminated_label_value_is_rejected(self):
        with pytest.raises(ConfigError):
            parse_prometheus('# TYPE c_total counter\nc_total{k="open 1')
        with pytest.raises(ConfigError):
            parse_prometheus('# TYPE c_total counter\nc_total{k="trail\\"} 1')

    def test_integer_values_have_no_decimal_point(self):
        r = MetricsRegistry()
        r.counter("c_total").inc(5)
        assert "c_total 5\n" in render_prometheus(r)

    def test_infinite_bound_renders_plus_inf(self):
        r = MetricsRegistry()
        r.histogram("h", buckets=(1.0,)).observe(9)
        text = render_prometheus(r)
        assert 'h_bucket{le="+Inf"} 1' in text
        sample = [
            s for s in parse_prometheus(text)["h"]["samples"]
            if s["labels"].get("le") == "+Inf"
        ]
        assert sample and sample[0]["value"] == 1


class TestSummary:
    def test_summarize_mentions_every_populated_family(self):
        text = summarize(_populated())
        for name in (names.REQUESTS, names.QUEUE_DEPTH, names.REQUEST_WALL):
            assert name in text

    def test_summarize_empty_registry(self):
        assert summarize(MetricsRegistry()) == "(no metrics recorded)"

    def test_infinity_never_leaks_into_tables(self):
        text = summarize(_populated())
        assert str(math.inf) not in text
