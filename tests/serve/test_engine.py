"""Engine: prepared sessions, batched serving, exactness, telemetry.

Every request enters through the typed client; the per-kind serving
contracts (served == one-shot, coalescing, isolation) are shared in
``tests/serve/test_session.py``.
"""

import time

import numpy as np
import pytest

import repro
from repro import SparseMatrix, api
from repro.errors import ConfigError, ShapeError
from repro.runtime import DEFAULT_BACKEND
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import PlanCache
from repro.serve.engine import Engine, bits_required
from repro.serve.planner import ExecutionPlanner
from tests.conftest import make_structured_sparse


@pytest.fixture
def weights(rng):
    return make_structured_sparse(rng, 64, 128, 8, 0.7, bits=8)


@pytest.fixture
def client():
    # generous wait so tests control flushing explicitly
    with repro.open_engine(
        policy=BatchPolicy(max_batch_size=8, max_wait_s=10.0)
    ) as c:
        yield c


def spmm(weights, rhs=None, session="w", **kwargs):
    return api.SpmmRequest(lhs=weights, rhs=rhs, session=session, **kwargs)


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
    def test_mixed_shapes_do_not_coalesce(self, client, weights, rng):
        f16 = client.submit(spmm(weights, rng.integers(-128, 128, size=(128, 16))))
        f32 = client.submit(spmm(weights, rng.integers(-128, 128, size=(128, 32))))
        client.flush()
        assert f16.result(timeout=30).output.shape == (64, 16)
        assert f32.result(timeout=30).output.shape == (64, 32)
        assert f16.result().batch_size == 1

    def test_low_precision_rhs_uses_faster_plan(self, client, rng):
        weights4 = make_structured_sparse(rng, 64, 128, 8, 0.7, bits=4)
        rhs = rng.integers(-8, 8, size=(128, 32))
        future = client.submit(spmm(weights4, rhs, session="w4"))
        client.flush()
        res = future.result(timeout=30)
        assert res.plan.precision == "L4-R4"
        np.testing.assert_array_equal(res.output, weights4.astype(np.int64) @ rhs)

    def test_bad_rhs_shape_rejected_at_submit(self, client, weights):
        with pytest.raises(ShapeError):
            client.submit(spmm(weights, np.zeros((4, 4), dtype=np.int64)))

    def test_run_blocks_until_result(self, weights, rng):
        with repro.open_engine(
            policy=BatchPolicy(max_batch_size=4, max_wait_s=0.005)
        ) as c:
            res = c.run(spmm(weights, rng.integers(-128, 128, size=(128, 8))))
            assert res.output.shape == (64, 8)

    def test_accepts_prebuilt_sparse_matrix(self, client, weights):
        matrix = SparseMatrix.from_dense(weights, vector_length=8)
        session = client.prepare(spmm(matrix, session="pre"))
        assert session.operand is matrix  # no re-conversion


class TestAttentionServing:
    def test_attention_populates_plan_cache(self, client):
        future = client.submit(
            api.AttentionRequest(seq_len=512, scheme=(8, 4), session="attn")
        )
        client.flush()
        future.result(timeout=60)
        assert any("sddmm" in k for k in client.planner.cache.keys())
        assert any("spmm" in k for k in client.planner.cache.keys())

    def test_bad_batch_rejected(self, client):
        client.prepare(api.AttentionRequest(seq_len=512, session="attn"))
        with pytest.raises(ConfigError):
            client.submit(
                api.AttentionRequest(seq_len=512, batch=0, session="attn")
            )


class TestEngineBookkeeping:
    def test_duplicate_session_name_rejected(self, client, weights):
        client.prepare(spmm(weights))
        # a second client over the same engine cannot claim the name
        with pytest.raises(ConfigError, match="already exists"):
            api.Client(client.engine).prepare(spmm(weights))

    def test_planner_and_cache_are_exclusive(self):
        with pytest.raises(ConfigError):
            Engine(planner=ExecutionPlanner(), cache=PlanCache())

    def test_session_lookup(self, client, weights, rng):
        s = client.prepare(spmm(weights))
        assert s.name == "w" and s.op == "spmm"
        assert client.prepare(spmm(weights, rng.integers(0, 4, (128, 8)))) is s

    def test_telemetry_and_summary(self, client, weights, rng):
        futures = [
            client.submit(spmm(weights, rng.integers(-128, 128, size=(128, 16))))
            for _ in range(4)
        ]
        client.flush()
        [f.result(timeout=30) for f in futures]
        summary = client.summary()
        assert summary["total"]["requests"] == 4
        assert summary["sessions"]["w"]["requests"] == 4
        assert summary["total"]["p50_ms"] <= summary["total"]["p99_ms"]
        assert summary["plan_cache"]["hit_rate"] > 0.5
        # one request-class plan + one realized-batch-width plan
        assert len(summary["plans"]) == 2
        assert "serving telemetry" in client.report()

    def test_cache_reuse_across_engines(self, weights, rng, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        with repro.open_engine(cache=cache, policy=BatchPolicy(1, 0.0)) as c:
            c.run(spmm(weights, rng.integers(-128, 128, size=(128, 16))))
            cache.save()

        warm = PlanCache(path)
        assert len(warm) == 1
        with repro.open_engine(cache=warm, policy=BatchPolicy(1, 0.0)) as c:
            c.run(spmm(weights, rng.integers(-128, 128, size=(128, 16))))
        assert warm.misses == 0  # every lookup served by the reloaded plans


class TestBackendPinning:
    def test_engine_resolves_default_backend(self, client):
        assert client.engine.backend == DEFAULT_BACKEND
        assert client.engine.device == "A100"

    def test_invalid_device_raises_typed_error(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            Engine(device="TPUv4")

    def test_session_pins_backend_into_plans(self, client, weights, rng):
        session = client.prepare(spmm(weights))
        assert session.backend == DEFAULT_BACKEND
        future = client.submit(
            spmm(weights, rng.integers(-128, 128, size=(128, 16)))
        )
        client.flush()
        res = future.result(timeout=30)
        assert res.plan.backend == DEFAULT_BACKEND
        assert f"{DEFAULT_BACKEND}@A100" in res.plan.key

    def test_strict_backend_session_serves_identical_outputs(self, weights, rng):
        with repro.open_engine(policy=BatchPolicy(1, 0.0)) as c:
            rhs = rng.integers(-8, 8, size=(128, 8))
            a = c.run(spmm(weights, rhs, session="fast"))
            b = c.run(spmm(weights, rhs, session="strict",
                           backend="magicube-strict"))
        assert b.plan.backend == "magicube-strict"
        np.testing.assert_array_equal(a.output, b.output)

    def test_unknown_backend_rejected(self, client, weights):
        with pytest.raises(ConfigError):
            client.prepare(spmm(weights, backend="tpu-xla"))

    def test_v100_engine_serves_through_fallback_backend(self, weights, rng):
        """V100 has no integer Tensor cores: the engine resolves the
        vector-sparse fallback and serves float results through the
        Backend protocol instead of a Magicube kernel config."""
        with repro.open_engine(device="V100", policy=BatchPolicy(1, 0.0)) as c:
            assert c.backend == "vector-sparse"
            rhs = rng.integers(-4, 4, size=(128, 16))
            res = c.run(spmm(weights, rhs))
        assert res.plan.backend == "vector-sparse"
        assert res.plan.precision == "fp16"
        np.testing.assert_allclose(
            res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
        )

    def test_non_magicube_batched_requests_coalesce(self, weights, rng):
        with repro.open_engine(
            device="V100", policy=BatchPolicy(max_batch_size=8, max_wait_s=10.0)
        ) as c:
            payloads = [rng.integers(-4, 4, size=(128, 16)) for _ in range(3)]
            futures = [c.submit(spmm(weights, rhs)) for rhs in payloads]
            c.flush()
            results = [f.result(timeout=30) for f in futures]
        assert all(r.batch_size == 3 for r in results)
        for rhs, res in zip(payloads, results):
            np.testing.assert_allclose(
                res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
            )

    def test_attention_requires_magicube_backend(self):
        with repro.open_engine(device="V100") as c:  # engine: vector-sparse
            session = c.prepare(api.AttentionRequest(seq_len=512))
            assert session.backend == DEFAULT_BACKEND
        with repro.open_engine(device="A100") as c:
            with pytest.raises(ConfigError):
                c.prepare(api.AttentionRequest(seq_len=512, backend="sputnik"))


class TestTicketedClientAPI:
    def test_submit_result_round_trip(self, client, weights, rng):
        rhs = rng.integers(-128, 128, size=(128, 16))
        handle = client.submit_async(spmm(weights, rhs))
        assert not handle.done()
        client.flush()
        res = client.result(handle, timeout=30)
        np.testing.assert_array_equal(res.output, weights.astype(np.int64) @ rhs)

    def test_result_by_integer_ticket(self, client, weights, rng):
        handle = client.submit_async(
            spmm(weights, rng.integers(-128, 128, size=(128, 16)))
        )
        client.flush()
        res = client.result(handle.id, timeout=30)
        assert res.batch_size == 1
        # redeemed tickets are forgotten
        with pytest.raises(ConfigError):
            client.result(handle.id)

    def test_unknown_ticket_rejected(self, client):
        with pytest.raises(ConfigError):
            client.result(999999)

    def test_pending_requests_counter(self, client, weights, rng):
        handles = [
            client.submit_async(
                spmm(weights, rng.integers(-128, 128, size=(128, 16)))
            )
            for _ in range(3)
        ]
        assert client.engine.pending_requests() == 3
        client.flush()
        for h in handles:
            client.result(h, timeout=30)
        assert client.engine.pending_requests() == 0

    def test_handles_are_awaitable(self, client, weights, rng):
        import asyncio

        rhs = rng.integers(-128, 128, size=(128, 16))

        async def redeem():
            handle = client.submit_async(spmm(weights, rhs))
            client.flush()
            return await handle

        res = asyncio.run(redeem())
        np.testing.assert_array_equal(res.output, weights.astype(np.int64) @ rhs)

    def test_attention_submit_async(self, client):
        handle = client.submit_async(
            api.AttentionRequest(seq_len=512, batch=2, session="attn")
        )
        client.flush()
        res = handle.result(timeout=60)
        assert res.output is None and res.stats.total_s > 0

    def test_completed_unredeemed_tickets_are_bounded(self, weights, rng):
        """Clients that await handles without calling client.result()
        must not grow the ticket registry without bound."""
        with repro.open_engine(policy=BatchPolicy(1, 0.0)) as c:
            e = c.engine
            e.COMPLETED_TICKET_LIMIT = 4
            rhs = rng.integers(-128, 128, size=(128, 8))
            handles = []
            for _ in range(10):
                h = c.submit_async(spmm(weights, rhs))
                h.result(timeout=30)  # resolved directly, never redeemed
                handles.append(h)
            # done-callbacks fire on worker threads; give them a moment
            deadline = time.monotonic() + 5.0
            while len(e._inflight) > 4 + 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(e._inflight) <= 4 + 1  # window + one in flight
            # recent tickets stay redeemable by id; evicted ones do not
            assert c.result(handles[-1].id, timeout=5) is not None
            with pytest.raises(ConfigError):
                c.result(handles[0].id)
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
