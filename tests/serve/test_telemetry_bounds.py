"""Telemetry memory stays bounded: the registry's fixed-bucket series."""

from __future__ import annotations

from repro.obs.export import render_json
from repro.serve.telemetry import Telemetry, publish_batch


def _series_shape(t: Telemetry) -> dict:
    """Per-family label sets and bucket-count lengths — the registry's
    whole per-series state, minus the values."""
    return {
        name: sorted(
            (tuple(sorted(s["labels"].items())), len(s.get("counts", ())))
            for s in family["samples"]
        )
        for name, family in t.metrics.to_dict().items()
    }


class TestTelemetryBounded:
    def test_memory_constant_under_sustained_load(self):
        t = Telemetry()
        for batch in range(10):
            publish_batch(t.metrics, "s", 1e-6, [1e-5, 2e-5], backend="b", device="d")
        shape = _series_shape(t)
        for batch in range(2990):
            publish_batch(t.metrics, "s", 1e-6, [1e-5, 2e-5], backend="b", device="d")
        assert _series_shape(t) == shape
        total = t.summary()
        assert total.requests == 6000
        assert total.batches == 3000

    def test_snapshot_fingerprint_stable_past_the_cap(self):
        def build() -> Telemetry:
            t = Telemetry()
            for batch in range(4096):
                publish_batch(
                    t.metrics, "s", 1e-6, [1e-5, 2e-5], backend="b", device="d"
                )
            return t

        assert render_json(build().metrics) == render_json(build().metrics)
