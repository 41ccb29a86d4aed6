"""MetricsRegistry: instruments, labels, persistence round-trip."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.obs import names
from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_S,
    MetricsRegistry,
    get_registry,
    merge_histograms,
    select,
    set_registry,
)
from repro.obs.names import STANDARD_METRICS, declare_standard


class TestInstruments:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        c = r.counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert r.counter("c") is c  # same child on re-access

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ConfigError):
            r.gauge("x")

    def test_labels_key_sorted_and_stringified(self):
        r = MetricsRegistry()
        a = r.counter("c", {"b": "2", "a": "1"})
        b = r.counter("c", {"a": 1, "b": 2})
        assert a is b
        (labels, child), = r.samples("c")
        assert labels == {"a": "1", "b": "2"} and child is a


class TestHistogram:
    def test_observe_and_bounds(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.counts == [1, 1, 1, 1]  # last is the +Inf overflow
        assert (h.min, h.max) == (0.5, 100.0)

    def test_quantile_interpolates_within_observed_range(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 0.7, 3.9):
            h.observe(v)
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) == h.max
        assert h.min <= h.quantile(0.5) <= 1.0  # inside the first bucket

    def test_quantile_empty_and_invalid(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.99) == 0.0
        with pytest.raises(ConfigError):
            h.quantile(1.5)

    def test_default_buckets_are_time_shaped(self):
        h = MetricsRegistry().histogram("h")
        assert h.buckets == DEFAULT_TIME_BUCKETS_S
        assert len(h.counts) == len(h.buckets) + 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_memory_constant_under_load(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for i in range(10_000):
            h.observe(i % 3)
        assert len(h.counts) == 3
        assert h.count == 10_000


class TestRoundTrip:
    def test_to_from_dict_identical(self):
        r = MetricsRegistry()
        declare_standard(r)
        r.counter(names.REQUESTS, {"session": "s"}).inc(7)
        r.gauge(names.QUEUE_DEPTH, {"session": "s"}).set(3)
        r.histogram(names.BATCH_SIZE).observe(4)
        r.histogram(names.REQUEST_WALL).observe(0.01)
        restored = MetricsRegistry.from_dict(r.to_dict())
        assert restored.to_dict() == r.to_dict()

    def test_round_trip_preserves_custom_buckets(self):
        # regression: restoring a snapshot must not reset a family's
        # bucket layout to the time default
        r = MetricsRegistry()
        h = r.histogram("sizes", buckets=(1.0, 8.0, 64.0))
        h.observe(5)
        h2 = MetricsRegistry.from_dict(r.to_dict()).histogram("sizes")
        assert h2.buckets == (1.0, 8.0, 64.0)
        assert h2.quantile(0.5) == h.quantile(0.5)

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            MetricsRegistry.from_dict({"x": {"kind": "summary", "samples": []}})

    def test_empty_histogram_min_max_survive(self):
        r = MetricsRegistry()
        r.histogram("h")
        h = MetricsRegistry.from_dict(r.to_dict()).histogram("h")
        assert h.count == 0 and h.min == math.inf


def _two_series(buckets_b=(1.0, 2.0, 4.0)) -> dict:
    """A registry dump with one histogram family over two label sets."""
    r = MetricsRegistry()
    a = r.histogram("h", {"session": "a"}, buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5):
        a.observe(v)
    doc = r.to_dict()
    other = MetricsRegistry()
    b = other.histogram("h", {"session": "b"}, buckets=buckets_b)
    for v in (3.0, 9.0):
        b.observe(v)
    doc["h"]["samples"] += other.to_dict()["h"]["samples"]
    return doc


class TestMergeHistograms:
    """The one histogram merge every cross-label reader goes through."""

    def test_adds_counts_sum_and_count(self):
        h = merge_histograms(select(_two_series(), "h"))
        assert h.counts == [1, 1, 1, 1]
        assert (h.count, h.sum) == (4, 14.0)
        assert h.buckets == (1.0, 2.0, 4.0)

    def test_keeps_the_min_max_envelope(self):
        h = merge_histograms(select(_two_series(), "h"))
        assert (h.min, h.max) == (0.5, 9.0)
        # the envelope clamps the estimate to the data's actual range
        assert h.quantile(1.0) == 9.0 and h.quantile(0.0) == 0.5

    def test_empty_and_min_less_samples(self):
        assert merge_histograms([]) is None
        # windowed deltas carry no min/max; the merge tolerates that
        delta = {"buckets": [1.0], "counts": [2, 0], "count": 2, "sum": 1.0}
        h = merge_histograms([delta])
        assert h.count == 2 and h.min == math.inf

    def test_select_filters_by_label_subset(self):
        doc = _two_series()
        assert [s["labels"] for s in select(doc, "h", {"session": "b"})] == [
            {"session": "b"}
        ]
        assert len(select(doc, "h")) == 2
        assert select(doc, "absent") == []

    def test_mismatched_layouts_raise(self):
        from repro.bench.loadgen import _latency_stats

        doc = _two_series(buckets_b=(1.0, 8.0, 64.0))
        with pytest.raises(ConfigError, match="bucket layouts"):
            merge_histograms(select(doc, "h"))
        with pytest.raises(ConfigError, match="bucket layouts"):
            _latency_stats(doc, "h")

    def test_every_cross_label_reader_calls_it(self, monkeypatch):
        from repro.bench import loadgen
        from repro.fleet import gateway
        from repro.obs import health
        from repro.serve import telemetry

        calls = []
        real = metrics.merge_histograms

        def spy(samples):
            calls.append(1)
            return real(samples)

        # loadgen imports it lazily, from the metrics module itself
        for module in (metrics, gateway, health, telemetry):
            monkeypatch.setattr(module, "merge_histograms", spy)
        doc = _two_series()

        merged = gateway.merge_metric_docs([doc, doc])
        assert calls and merged["h"]["samples"][0]["count"] == 4
        calls.clear()
        spec = health.SloSpec(
            name="p95", kind="latency", objective=1.0, metric="h"
        )
        assert health.evaluate_registry(doc, (spec,)).results[0].observed
        assert calls
        calls.clear()
        assert loadgen._latency_stats(doc, "h")["count"] == 4
        assert calls
        calls.clear()
        t = telemetry.Telemetry()
        telemetry.publish_batch(t.metrics, "s", 1e-3, [0.0])
        assert t.summary().requests == 1 and calls


class TestStandardContract:
    def test_declare_standard_names_everything(self):
        r = declare_standard(MetricsRegistry())
        assert r.names() == sorted(m[0] for m in STANDARD_METRICS)

    def test_standard_metric_conventions(self):
        for name, kind, help_line, _ in STANDARD_METRICS:
            assert name.startswith("repro_")
            assert help_line.strip()
            if kind == "counter":
                assert name.endswith("_total")
            if name.endswith("_seconds"):
                assert kind == "histogram"

    def test_global_registry_swap(self):
        fresh = MetricsRegistry()
        old = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(old)
        assert get_registry() is old
