"""Merging worker registries into the fleet's one metrics document."""

import pytest

from repro.fleet.gateway import merge_metric_docs
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, select
from repro.serve.telemetry import plan_traffic, publish_batch


def worker_doc(queue_depth: float) -> dict:
    """One worker's registry after serving one batch of plan key ``k``."""
    registry = MetricsRegistry()
    publish_batch(registry, "s", 1e-6, [0.0], backend="b", device="d",
                  plan_key="k", predicted_time_s=1e-6)
    registry.gauge(names.QUEUE_DEPTH, {"session": "s"}).set(queue_depth)
    return registry.to_dict()


class TestMergeMetricDocs:
    def test_per_plan_gauges_take_the_max(self):
        merged = merge_metric_docs([worker_doc(1), worker_doc(2)])
        (predicted,) = select(merged, names.PLAN_PREDICTED, {"plan": "k"})
        assert predicted["value"] == pytest.approx(1e-6)

    def test_load_gauges_and_counters_still_sum(self):
        merged = merge_metric_docs([worker_doc(1), worker_doc(2)])
        (depth,) = select(merged, names.QUEUE_DEPTH, {"session": "s"})
        assert depth["value"] == 3
        assert sum(s["value"] for s in select(merged, names.REQUESTS)) == 2

    def test_merged_regression_ratio_matches_one_worker(self):
        """Observed per-launch time ÷ predicted reads the same on the
        fleet document as on one worker's registry."""
        one = plan_traffic(worker_doc(0))["k"]
        fleet = plan_traffic(merge_metric_docs([worker_doc(0)] * 3))["k"]

        def ratio(stats):
            return stats["modelled_busy_s"] / stats["launches"] / stats["predicted_time_s"]

        assert fleet["launches"] == 3 * one["launches"]
        assert ratio(fleet) == pytest.approx(ratio(one))
