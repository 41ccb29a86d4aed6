"""Engine: prepared sessions, batched serving, exactness, telemetry.

Exercises the pre-v1 session factories (deprecation shims).
"""

import time

import numpy as np
import pytest

from repro.core.api import SparseMatrix, spmm as direct_spmm
from repro.errors import ConfigError, ShapeError
from repro.runtime import DEFAULT_BACKEND
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import PlanCache
from repro.serve.engine import Engine, bits_required
from repro.serve.planner import ExecutionPlanner
from tests.conftest import make_structured_sparse


pytestmark = [
    pytest.mark.legacy,
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
]


@pytest.fixture
def weights(rng):
    return make_structured_sparse(rng, 64, 128, 8, 0.7, bits=8)


@pytest.fixture
def engine():
    # generous wait so tests control flushing explicitly
    with Engine(policy=BatchPolicy(max_batch_size=8, max_wait_s=10.0)) as e:
        yield e


class TestBitsRequired:
    def test_widths(self):
        assert bits_required(np.array([-8, 7])) == 4
        assert bits_required(np.array([-128, 127])) == 8
        assert bits_required(np.array([300])) == 12
        assert bits_required(np.array([-30000])) == 16

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            bits_required(np.array([1 << 20]))


class TestSpmmServing:
    def test_bit_identical_to_direct_path(self, engine, weights, rng):
        session = engine.spmm_session("w", weights, vector_length=8)
        rhs = rng.integers(-128, 128, size=(128, 32))
        future = session.submit(rhs)
        engine.flush()
        served = future.result(timeout=30)
        direct = direct_spmm(session.matrix, rhs, precision=served.plan.precision)
        np.testing.assert_array_equal(served.output, direct.output)
        np.testing.assert_array_equal(
            served.output, weights.astype(np.int64) @ rhs
        )

    def test_batched_outputs_match_unbatched_reference(self, engine, weights, rng):
        """Coalesced requests preserve per-request outputs exactly."""
        session = engine.spmm_session("w", weights, vector_length=8)
        payloads = [rng.integers(-128, 128, size=(128, 16)) for _ in range(6)]
        futures = [session.submit(rhs) for rhs in payloads]
        engine.flush()
        results = [f.result(timeout=30) for f in futures]
        assert all(r.batch_size == 6 for r in results)  # truly coalesced
        # the launch's plan is re-tuned for the realized batched width
        assert "n=96" in results[0].plan.key
        for rhs, res in zip(payloads, results):
            np.testing.assert_array_equal(
                res.output, weights.astype(np.int64) @ rhs
            )
            assert res.modelled_time_s > 0
            assert res.request_time_s == pytest.approx(res.modelled_time_s / 6)

    def test_mixed_shapes_do_not_coalesce(self, engine, weights, rng):
        session = engine.spmm_session("w", weights, vector_length=8)
        f16 = session.submit(rng.integers(-128, 128, size=(128, 16)))
        f32 = session.submit(rng.integers(-128, 128, size=(128, 32)))
        engine.flush()
        assert f16.result(timeout=30).output.shape == (64, 16)
        assert f32.result(timeout=30).output.shape == (64, 32)
        assert f16.result().batch_size == 1

    def test_low_precision_rhs_uses_faster_plan(self, engine, rng):
        weights4 = make_structured_sparse(rng, 64, 128, 8, 0.7, bits=4)
        session = engine.spmm_session("w4", weights4, vector_length=8)
        rhs = rng.integers(-8, 8, size=(128, 32))
        future = session.submit(rhs)
        engine.flush()
        res = future.result(timeout=30)
        assert res.plan.precision == "L4-R4"
        np.testing.assert_array_equal(res.output, weights4.astype(np.int64) @ rhs)

    def test_bad_rhs_shape_rejected_at_submit(self, engine, weights):
        session = engine.spmm_session("w", weights, vector_length=8)
        with pytest.raises(ShapeError):
            session.submit(np.zeros((4, 4), dtype=np.int64))

    def test_run_blocks_until_result(self, weights, rng):
        with Engine(policy=BatchPolicy(max_batch_size=4, max_wait_s=0.005)) as e:
            session = e.spmm_session("w", weights, vector_length=8)
            res = session.run(rng.integers(-128, 128, size=(128, 8)))
            assert res.output.shape == (64, 8)

    def test_accepts_prebuilt_sparse_matrix(self, engine, weights, rng):
        matrix = SparseMatrix.from_dense(weights, vector_length=8)
        session = engine.spmm_session("pre", matrix)
        assert session.matrix is matrix  # no re-conversion


class TestAttentionServing:
    def test_attention_requests_coalesce_by_batch(self, engine):
        session = engine.attention_session(
            "attn", seq_len=512, num_heads=4, sparsity=0.9, scheme=(8, 8)
        )
        futures = [session.submit(batch=2) for _ in range(3)]
        engine.flush()
        results = [f.result(timeout=60) for f in futures]
        assert all(r.batch_size == 3 for r in results)
        total = results[0].modelled_time_s
        assert total > 0
        for r in results:
            assert r.output is None
            assert r.detail.total_s == total
            assert r.request_time_s == pytest.approx(total * 2 / 6)

    def test_attention_populates_plan_cache(self, engine):
        session = engine.attention_session("attn", seq_len=512, scheme=(8, 4))
        future = session.submit()
        engine.flush()
        future.result(timeout=60)
        assert any("sddmm" in k for k in engine.planner.cache.keys())
        assert any("spmm" in k for k in engine.planner.cache.keys())

    def test_bad_batch_rejected(self, engine):
        session = engine.attention_session("attn", seq_len=512)
        with pytest.raises(ConfigError):
            session.submit(batch=0)


class TestEngineBookkeeping:
    def test_duplicate_session_name_rejected(self, engine, weights):
        engine.spmm_session("w", weights)
        with pytest.raises(ConfigError):
            engine.spmm_session("w", weights)

    def test_planner_and_cache_are_exclusive(self):
        with pytest.raises(ConfigError):
            Engine(planner=ExecutionPlanner(), cache=PlanCache())

    def test_session_lookup(self, engine, weights):
        s = engine.spmm_session("w", weights)
        assert engine.session("w") is s

    def test_telemetry_and_summary(self, engine, weights, rng):
        session = engine.spmm_session("w", weights, vector_length=8)
        futures = [
            session.submit(rng.integers(-128, 128, size=(128, 16)))
            for _ in range(4)
        ]
        engine.flush()
        [f.result(timeout=30) for f in futures]
        summary = engine.summary()
        assert summary["total"]["requests"] == 4
        assert summary["sessions"]["w"]["requests"] == 4
        assert summary["total"]["p50_ms"] <= summary["total"]["p99_ms"]
        assert summary["plan_cache"]["hit_rate"] > 0.5
        # one request-class plan + one realized-batch-width plan
        assert len(summary["plans"]) == 2
        assert "serving telemetry" in engine.report()

    def test_cache_reuse_across_engines(self, weights, rng, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        with Engine(cache=cache, policy=BatchPolicy(1, 0.0)) as e:
            e.spmm_session("w", weights).run(
                rng.integers(-128, 128, size=(128, 16))
            )
            cache.save()

        warm = PlanCache(path)
        assert len(warm) == 1
        with Engine(cache=warm, policy=BatchPolicy(1, 0.0)) as e:
            e.spmm_session("w", weights).run(
                rng.integers(-128, 128, size=(128, 16))
            )
        assert warm.misses == 0  # every lookup served by the reloaded plans


class TestBackendPinning:
    def test_engine_resolves_default_backend(self, engine):
        assert engine.backend == DEFAULT_BACKEND
        assert engine.device == "A100"

    def test_invalid_device_raises_typed_error(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            Engine(device="TPUv4")

    def test_session_pins_backend_into_plans(self, engine, weights, rng):
        session = engine.spmm_session("w", weights, vector_length=8)
        assert session.backend == DEFAULT_BACKEND
        future = session.submit(rng.integers(-128, 128, size=(128, 16)))
        engine.flush()
        res = future.result(timeout=30)
        assert res.plan.backend == DEFAULT_BACKEND
        assert f"{DEFAULT_BACKEND}@A100" in res.plan.key

    def test_strict_backend_session_serves_identical_outputs(self, weights, rng):
        with Engine(policy=BatchPolicy(1, 0.0)) as e:
            fast = e.spmm_session("fast", weights, vector_length=8)
            strict = e.spmm_session(
                "strict", weights, vector_length=8, backend="magicube-strict"
            )
            rhs = rng.integers(-8, 8, size=(128, 8))
            a = fast.run(rhs)
            b = strict.run(rhs)
        assert b.plan.backend == "magicube-strict"
        np.testing.assert_array_equal(a.output, b.output)

    def test_unknown_backend_rejected(self, engine, weights):
        with pytest.raises(ConfigError):
            engine.spmm_session("w", weights, backend="tpu-xla")

    def test_v100_engine_serves_through_fallback_backend(self, weights, rng):
        """V100 has no integer Tensor cores: the engine resolves the
        vector-sparse fallback and serves float results through the
        Backend protocol instead of a Magicube kernel config."""
        with Engine(device="V100", policy=BatchPolicy(1, 0.0)) as e:
            assert e.backend == "vector-sparse"
            session = e.spmm_session("w", weights, vector_length=8)
            rhs = rng.integers(-4, 4, size=(128, 16))
            res = session.run(rhs)
        assert res.plan.backend == "vector-sparse"
        assert res.plan.precision == "fp16"
        np.testing.assert_allclose(
            res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
        )

    def test_non_magicube_batched_requests_coalesce(self, weights, rng):
        with Engine(device="V100", policy=BatchPolicy(max_batch_size=8,
                                                      max_wait_s=10.0)) as e:
            session = e.spmm_session("w", weights, vector_length=8)
            payloads = [rng.integers(-4, 4, size=(128, 16)) for _ in range(3)]
            futures = [session.submit(rhs) for rhs in payloads]
            e.flush()
            results = [f.result(timeout=30) for f in futures]
        assert all(r.batch_size == 3 for r in results)
        for rhs, res in zip(payloads, results):
            np.testing.assert_allclose(
                res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
            )

    def test_attention_session_requires_magicube_backend(self):
        with Engine(device="V100") as e:  # engine backend: vector-sparse
            session = e.attention_session("attn", seq_len=512)
            assert session.backend == DEFAULT_BACKEND
        with Engine(device="A100") as e:
            with pytest.raises(ConfigError):
                e.attention_session("attn", seq_len=512, backend="sputnik")


class TestTicketedClientAPI:
    def test_submit_result_round_trip(self, engine, weights, rng):
        engine.spmm_session("w", weights, vector_length=8)
        rhs = rng.integers(-128, 128, size=(128, 16))
        handle = engine.submit("w", rhs)
        assert not handle.done()
        engine.flush()
        res = engine.result(handle, timeout=30)
        np.testing.assert_array_equal(res.output, weights.astype(np.int64) @ rhs)

    def test_result_by_integer_ticket(self, engine, weights, rng):
        engine.spmm_session("w", weights, vector_length=8)
        handle = engine.submit("w", rng.integers(-128, 128, size=(128, 16)))
        engine.flush()
        res = engine.result(handle.id, timeout=30)
        assert res.batch_size == 1
        # redeemed tickets are forgotten
        with pytest.raises(ConfigError):
            engine.result(handle.id)

    def test_unknown_ticket_rejected(self, engine):
        with pytest.raises(ConfigError):
            engine.result(999999)

    def test_pending_requests_counter(self, engine, weights, rng):
        engine.spmm_session("w", weights, vector_length=8)
        handles = [
            engine.submit("w", rng.integers(-128, 128, size=(128, 16)))
            for _ in range(3)
        ]
        assert engine.pending_requests() == 3
        engine.flush()
        for h in handles:
            engine.result(h, timeout=30)
        assert engine.pending_requests() == 0

    def test_handles_are_awaitable(self, engine, weights, rng):
        import asyncio

        engine.spmm_session("w", weights, vector_length=8)
        rhs = rng.integers(-128, 128, size=(128, 16))

        async def client():
            handle = engine.submit("w", rhs)
            engine.flush()
            return await handle

        res = asyncio.run(client())
        np.testing.assert_array_equal(res.output, weights.astype(np.int64) @ rhs)

    def test_attention_submit_async(self, engine):
        session = engine.attention_session("attn", seq_len=512)
        handle = session.submit_async(batch=2)
        engine.flush()
        res = handle.result(timeout=60)
        assert res.output is None and res.detail.total_s > 0

    def test_completed_unredeemed_tickets_are_bounded(self, weights, rng):
        """Clients that await handles without calling engine.result()
        must not grow the ticket registry without bound."""
        with Engine(policy=BatchPolicy(1, 0.0)) as e:
            e.COMPLETED_TICKET_LIMIT = 4
            session = e.spmm_session("w", weights, vector_length=8)
            rhs = rng.integers(-128, 128, size=(128, 8))
            handles = []
            for _ in range(10):
                h = session.submit_async(rhs)
                h.result(timeout=30)  # resolved directly, never redeemed
                handles.append(h)
            # done-callbacks fire on worker threads; give them a moment
            deadline = time.monotonic() + 5.0
            while len(e._inflight) > 4 + 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(e._inflight) <= 4 + 1  # window + one in flight
            # recent tickets stay redeemable by id; evicted ones do not
            assert e.result(handles[-1].id, timeout=5) is not None
            with pytest.raises(ConfigError):
                e.result(handles[0].id)
            # handles themselves always resolve, evicted or not
            assert handles[0].result(timeout=5) is not None


class TestPlannerRoutedInference:
    def test_estimate_latency_accepts_planner(self):
        from repro.transformer.inference import (
            MAGICUBE_8_8,
            InferenceConfig,
            estimate_latency,
        )

        cfg = InferenceConfig(seq_len=512, num_heads=4, batch=2)
        planner = ExecutionPlanner(device=cfg.device)
        baseline = estimate_latency(cfg, MAGICUBE_8_8)
        routed = estimate_latency(cfg, MAGICUBE_8_8, planner=planner)
        # the planner tunes tile knobs against the same cost model: the
        # routed path can only match or beat the fixed default configs
        assert routed.total_s <= baseline.total_s * 1.001
        assert len(planner.cache) == 2  # one sddmm + one spmm plan
