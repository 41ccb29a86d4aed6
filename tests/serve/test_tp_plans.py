"""Tensor-parallel plan pricing: the planner chooses sharded plans.

The Magicube planning hook prices every kernel config at tensor-
parallel widths :data:`repro.runtime.magicube.TP_CANDIDATES`, adding
the ring all-reduce cost from :mod:`repro.transformer.distributed` to
the sharded variants. Small problems stay on one device (the 12 us
collective floor dominates); genuinely bandwidth-bound shapes elect a
``{"tp": g}`` plan, surfaced as :attr:`Plan.shards` and recorded per
plan key in telemetry.
"""

import pytest

from repro.errors import ConfigError
from repro.runtime.backend import Problem
from repro.runtime.magicube import TP_CANDIDATES, MagicubeEmulationBackend
from repro.serve.planner import ExecutionPlanner, Plan
from repro.serve.telemetry import Telemetry, plan_traffic, publish_batch

SMALL = Problem("spmm", 64, 64, 64, 8, 0.7)
LARGE = Problem("spmm", 8192, 8192, 128, 8, 0.7)


@pytest.fixture(scope="module")
def backend() -> MagicubeEmulationBackend:
    return MagicubeEmulationBackend()


class TestPlanCandidatesTP:
    def test_small_problem_stays_unsharded(self, backend):
        for cand in backend.plan_candidates(SMALL, "A100"):
            assert "tp" not in cand.config, cand

    def test_large_problem_elects_sharding(self, backend):
        tps = {
            cand.config.get("tp", 1)
            for cand in backend.plan_candidates(LARGE, "A100")
        }
        assert tps - {1}, "a bandwidth-bound shape should shard"
        assert tps <= set(TP_CANDIDATES)

    def test_sharded_beats_unsharded_at_large_scale(self, backend):
        """The election is a price comparison, not a heuristic: the
        same search with sharding disabled must cost more."""
        import repro.runtime.magicube as magicube

        sharded = backend.plan_candidates(LARGE, "A100")
        try:
            magicube.TP_CANDIDATES = (1,)
            single = backend.plan_candidates(LARGE, "A100")
        finally:
            magicube.TP_CANDIDATES = (1, 2, 4)
        by_precision = {c.precision: c for c in single}
        for cand in sharded:
            if cand.config.get("tp", 1) > 1:
                assert cand.time_s < by_precision[cand.precision].time_s

    def test_indivisible_contraction_dim_never_shards(self, backend):
        # 72 columns cannot split 2 or 4 ways at vector length 8
        problem = Problem("spmm", 8192, 72, 128, 8, 0.7)
        cands = backend.plan_candidates(problem, "A100")
        assert cands, "the unsharded candidates must survive the guard"
        for cand in cands:
            assert "tp" not in cand.config

    def test_sddmm_shards_too(self, backend):
        problem = Problem("sddmm", 8192, 8192, 1024, 8, 0.9)
        tps = {
            cand.config.get("tp", 1)
            for cand in backend.plan_candidates(problem, "A100")
        }
        assert tps - {1}


class TestPlanShards:
    def test_sharded_plan_surfaces_width(self):
        planner = ExecutionPlanner(device="A100")
        plan = planner.plan_spmm(8192, 8192, 128, 8, 0.7)
        assert plan.shards > 1
        assert plan.config["tp"] == plan.shards

    def test_unsharded_plan_reports_one(self):
        planner = ExecutionPlanner(device="A100")
        plan = planner.plan_spmm(64, 64, 64, 8, 0.7)
        assert plan.shards == 1 and "tp" not in plan.config

    def test_tp_is_not_a_kernel_knob(self):
        """``tp`` is placement metadata: the kernel config builder
        must strip it (SpMMConfig has no such field)."""
        planner = ExecutionPlanner(device="A100")
        plan = planner.plan_spmm(8192, 8192, 128, 8, 0.7)
        cfg = plan.spmm_config()
        assert not hasattr(cfg, "tp")
        assert cfg.l_bits == plan.l_bits

    def test_shards_survive_serialization(self):
        planner = ExecutionPlanner(device="A100")
        plan = planner.plan_spmm(8192, 8192, 128, 8, 0.7)
        clone = Plan.from_dict(plan.to_dict())
        assert clone.shards == plan.shards > 1


class TestTelemetryShards:
    def test_recorded_per_plan_key(self):
        t = Telemetry()
        publish_batch(t.metrics, "s", 1e-3, [0.0], plan_key="sharded", shards=4)
        publish_batch(t.metrics, "s", 1e-3, [0.0], plan_key="plain")
        plans = plan_traffic(t.metrics.to_dict())
        assert plans["sharded"]["shards"] == 4
        assert plans["plain"]["shards"] == 1


class TestDistributedAttention:
    """``AttentionRequest(num_gpus=g)`` prices the tensor-parallel
    deployment through the same resolution pipeline."""

    def test_distributed_breakdown(self):
        import repro
        from repro.api import AttentionRequest

        with repro.open_engine() as client:
            single = client.run(AttentionRequest(seq_len=256, num_heads=8))
            dist = client.run(
                AttentionRequest(seq_len=256, num_heads=8, num_gpus=4)
            )
        assert dist.stats["comm_s"] > 0
        assert dist.stats["compute_s"] < single.time_s  # the shard is smaller
        assert dist.time_s == pytest.approx(
            dist.stats["compute_s"] + dist.stats["comm_s"]
        )

    def test_topology_splits_sessions_per_width(self):
        from repro.api import AttentionRequest

        a = AttentionRequest(seq_len=128, num_heads=4)
        b = AttentionRequest(seq_len=128, num_heads=4, num_gpus=2)
        assert a.topology != b.topology

    def test_indivisible_heads_rejected(self):
        from repro import api

        with pytest.raises(ConfigError, match="shard"):
            api.run(api.AttentionRequest(seq_len=128, num_heads=4, num_gpus=3))
