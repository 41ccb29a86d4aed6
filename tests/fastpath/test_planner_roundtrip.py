"""Fastpath plans survive the whole planning lifecycle.

A plan that names ``fastpath-vectorized`` must behave exactly like a
Magicube plan everywhere plans travel: planner search, kernel-config
construction, plan-cache save/load, autotune artifacts, warm-started
engines. Anything less and the fast path silently falls out of the
serving loop.
"""

import numpy as np
import pytest

from repro.serve.cache import PlanCache
from repro.serve.planner import ExecutionPlanner, Objective


@pytest.fixture
def planner() -> ExecutionPlanner:
    return ExecutionPlanner(device="A100")


class TestPlanning:
    def test_fastpath_plan_carries_magicube_configs(self, planner):
        plan = planner.plan_spmm(
            256, 512, 64, 8, 0.9, Objective.fixed(8, 8),
            backend="fastpath-vectorized",
        )
        assert plan.backend == "fastpath-vectorized"
        assert plan.is_magicube  # fastpath runs the Magicube kernels
        cfg = plan.spmm_config()
        assert (cfg.l_bits, cfg.r_bits) == (8, 8)
        assert plan.stride == 16

    def test_fastpath_and_emulation_pick_identical_plans(self, planner):
        emu = planner.plan_spmm(
            256, 512, 64, 8, 0.9, Objective.latency(),
            backend="magicube-emulation",
        )
        fast = planner.plan_spmm(
            256, 512, 64, 8, 0.9, Objective.latency(),
            backend="fastpath-vectorized",
        )
        # same kernels, same accounting -> same precision and knobs
        assert (emu.precision, emu.config) == (fast.precision, fast.config)
        assert emu.key != fast.key  # but distinct cache entries

    def test_sddmm_plan(self, planner):
        plan = planner.plan_sddmm(
            256, 256, 64, 8, 0.9, Objective.fixed(8, 8),
            backend="fastpath-vectorized",
        )
        assert plan.backend == "fastpath-vectorized"
        assert plan.sddmm_config().l_bits == 8


class TestCacheRoundTrip:
    def test_save_load_preserves_fastpath_plans(self, planner, tmp_path):
        plan = planner.plan_spmm(
            256, 512, 64, 8, 0.9, Objective.fixed(8, 8),
            backend="fastpath-vectorized",
        )
        path = tmp_path / "plans.json"
        planner.cache.save(path)
        fresh = PlanCache()
        assert fresh.load(path) == len(planner.cache)
        reloaded = fresh.get(plan.key)
        assert reloaded is not None
        assert reloaded.backend == "fastpath-vectorized"
        assert reloaded.spmm_config() == plan.spmm_config()


class TestWarmStartedEngine:
    def test_artifact_warm_starts_fastpath_serving(self, tmp_path):
        from repro import api
        from repro.autotune import (
            ArtifactManifest,
            SweepConfig,
            run_sweep,
            write_artifact,
        )
        from repro.dlmc.generator import MatrixSpec, generate_matrix

        from repro.core.matrix import SparseMatrix

        spec = MatrixSpec("transformer", 128, 128, sparsity=0.9, seed=1)
        dense = generate_matrix(spec, vector_length=8, bits=8)
        # the sweep must cover the *realized* sparsity the engine will
        # classify requests under (PlanKey buckets at 3 decimals)
        weights = SparseMatrix.from_dense(dense, vector_length=8)
        config = SweepConfig(
            ops=("spmm",),
            shapes=((128, 128, 64),),
            vector_lengths=(8,),
            sparsities=(weights.sparsity,),
            devices=("A100",),
            backends=("fastpath-vectorized",),
            min_bits=((8, 8),),
        )
        report = run_sweep(config, repeats=1)
        artifact = tmp_path / "plans.json"
        write_artifact(artifact, report.cache, ArtifactManifest.for_report(report))

        rng = np.random.default_rng(0)
        with api.open_engine(device="A100", warm_start=artifact) as client:
            session = client.prepare(
                api.SpmmRequest(
                    lhs=weights, session="ffn", backend="fastpath-vectorized"
                )
            )
            client.planner.cache.reset_counters()
            plan = session.plan_for(64, 8)
            assert plan.backend == "fastpath-vectorized"
            stats = client.planner.cache.stats()
            assert stats["hits"] == 1 and stats["misses"] == 0
            resp = client.run(api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-128, 128, size=(128, 64)),
                session="ffn", backend="fastpath-vectorized",
            ))
            assert resp.backend == "fastpath-vectorized"
