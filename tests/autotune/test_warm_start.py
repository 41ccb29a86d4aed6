"""End-to-end warm start: sweep offline, serve warm, hit on first contact."""

import numpy as np
import pytest

from repro import SparseMatrix, api
from repro.autotune import ArtifactManifest, SweepConfig, run_sweep, write_artifact
from repro.serve.planner import ExecutionPlanner

WIDTHS = (16, 32)


@pytest.fixture(scope="module")
def weights() -> SparseMatrix:
    rng = np.random.default_rng(7)
    dense = rng.integers(-127, 128, size=(64, 64))
    dense[np.abs(dense) < 100] = 0  # sparse-ish, still full int8 range
    return SparseMatrix.from_dense(dense, vector_length=8)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, weights):
    """Sweep exactly the request classes the engine tests will send."""
    with api.open_engine(device="A100") as probe:
        session = probe.prepare(api.SpmmRequest(lhs=weights, session="probe"))
        weight_bits = session.weight_bits
    config = SweepConfig(
        ops=("spmm",),
        shapes=tuple((64, 64, n) for n in WIDTHS),
        vector_lengths=(8,),
        sparsities=(weights.sparsity,),
        devices=("A100",),
        min_bits=((weight_bits, 8),),
    )
    report = run_sweep(config, warmup=0, repeats=1, prune_ratio=None)
    path = tmp_path_factory.mktemp("autotune") / "plans.json"
    write_artifact(path, report.cache, ArtifactManifest.for_report(report))
    return path


class TestPlannerWarmStart:
    def test_preloads_and_counts(self, artifact):
        planner = ExecutionPlanner(device="A100", warm_start=str(artifact))
        assert len(planner.cache) == len(WIDTHS)

    def test_warm_start_method_returns_loaded_count(self, artifact):
        planner = ExecutionPlanner(device="A100")
        assert planner.warm_start(str(artifact)) == len(WIDTHS)


class TestEngineWarmStart:
    def test_first_contact_hit_rate_at_least_half(self, artifact, weights):
        """The ISSUE acceptance gate: >=50% hits on first contact."""
        with api.open_engine(device="A100", warm_start=artifact) as client:
            session = client.prepare(api.SpmmRequest(lhs=weights, session="ffn"))
            client.planner.cache.reset_counters()
            for n in WIDTHS:
                session.plan_for(n, 8)
            stats = client.planner.cache.stats()
        assert stats["hits"] + stats["misses"] == len(WIDTHS)
        assert stats["hit_rate"] >= 0.5
        # in fact every swept class hits
        assert stats["hit_rate"] == 1.0

    def test_cold_engine_misses_the_same_classes(self, weights):
        with api.open_engine(device="A100") as client:
            session = client.prepare(api.SpmmRequest(lhs=weights, session="ffn"))
            client.planner.cache.reset_counters()
            for n in WIDTHS:
                session.plan_for(n, 8)
            stats = client.planner.cache.stats()
        assert stats["hit_rate"] == 0.0

    def test_warm_served_output_matches_direct_path(self, artifact, weights):
        """Warm-start plans serve bit-identical outputs."""
        rng = np.random.default_rng(3)
        rhs = rng.integers(-128, 128, size=(64, WIDTHS[0]))
        with api.open_engine(device="A100", warm_start=artifact) as client:
            served = client.run(
                api.SpmmRequest(lhs=weights, rhs=rhs, r_bits=8, session="ffn")
            )
        direct = api.run(
            api.SpmmRequest(lhs=weights, rhs=rhs, precision=served.plan.precision),
            device="A100",
        )
        assert np.array_equal(served.output, direct.output)

    def test_unswept_class_still_plans(self, artifact, weights):
        """Warm start never blocks classes outside the sweep grid."""
        with api.open_engine(device="A100", warm_start=artifact) as client:
            session = client.prepare(api.SpmmRequest(lhs=weights, session="ffn"))
            plan = session.plan_for(48, 8)  # width not in the sweep
        assert plan.predicted_time_s > 0
